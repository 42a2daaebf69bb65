package rtree

// This file implements the fast batch-insert pipeline: InsertItems sorts a
// batch into Hilbert order, partitions it into contiguous runs that share a
// target leaf, and services each run with bulk machinery — direct placement
// into the chosen leaf, or a bottom-up-packed mini-subtree grafted as a
// sibling — instead of driving every item through the per-item
// choose/overflow/split path. The whole batch runs in one mutation epoch,
// so copy-on-write clones each touched node at most once per batch and
// publishes once.
//
// Equivalence contract: InsertItems is defined as equivalent to inserting
// the Hilbert-sorted batch item by item — the same objects become
// searchable with identical result sets, and the structure always satisfies
// Validate. It may build a different (bulk-packed) shape for large runs,
// which is what makes it fast. File-backed and in-memory trees route a given
// batch identically, so their structures and I/O counts stay bit-identical
// to each other.

// rebuildFactor is the wholesale-rebuild threshold: a batch of at least
// rebuildFactor × the current tree size is merged with the existing items
// and bulk packed from scratch, exactly like a bulk load of the union.
// Grafting run by run cannot beat that when the batch dwarfs the tree — most
// runs end at a foreign leaf boundary after a handful of items.
const rebuildFactor = 2

// IngestStats reports how an InsertItems call routed its items, in the trace
// it returns.
type IngestStats struct {
	// Items is the batch size.
	Items int
	// Runs is the number of Hilbert-contiguous runs the batch split into.
	Runs int
	// RunPlaced counts items placed directly into a run's target leaf
	// without per-item subtree choice.
	RunPlaced int
	// Grafted counts items that entered via a pre-packed subtree graft.
	Grafted int
	// GraftSubtrees and GraftNodes count the grafted subtrees and the nodes
	// built for them.
	GraftSubtrees int
	GraftNodes    int
	// PerItem counts items that fell back to the classic insert path (run
	// heads on full leaves, items after a leaf filled up).
	PerItem int
	// BulkLoaded reports that the batch hit an empty tree and was bulk
	// packed wholesale.
	BulkLoaded bool
	// Rebuilt reports that the batch was at least rebuildFactor × the tree
	// size, so the union of old and new items was bulk packed from scratch.
	// Node ids may have been freed and reused, so consumers of the trace must
	// discard per-node bookkeeping and recompute from a fresh walk; Created
	// still lists every live node.
	Rebuilt bool
}

// InsertItems adds a batch of objects in one mutation epoch and returns one
// aggregated trace of every structural change (the clipped layer consumes
// it exactly like a single-insert trace). Outside an explicit batch the new
// state is published to readers atomically when InsertItems returns — the
// batch is never observable partially.
//
// On an empty tree the batch is bulk packed (Hilbert packing for the
// Hilbert variant, STR otherwise), like BulkLoad. Otherwise items are
// sorted into Hilbert order and contiguous runs that fall inside one leaf's
// MBB are serviced together: subtree choice runs once per run, runs are
// placed directly while the leaf has room, and runs of at least M items (the
// node capacity) are bottom-up packed into mini-subtrees grafted as siblings
// at the appropriate level. Items that fit none of
// those take the classic per-item insert path.
func (t *Tree) InsertItems(items []Item) (trace *InsertTrace, err error) {
	if err := t.ensureMutable(); err != nil {
		return nil, err
	}
	if err := t.checkItems(items); err != nil {
		return nil, err
	}
	trace = &InsertTrace{Leaf: InvalidNode, IngestStats: IngestStats{Items: len(items)}}
	defer func() { t.chargeWrites(trace.Writes); t.autoCommit(err) }()
	if len(items) == 0 {
		return trace, nil
	}
	if len(items) > 1 {
		trace.seen = make(map[NodeID]uint8, 1+len(items)/t.cfg.MaxEntries)
	}

	if t.root == InvalidNode {
		// Empty tree: the whole batch is a bulk load. Every node is new, so
		// the trace marks them all created (the clipped layer then clips
		// each once, as it would after BulkLoad).
		t.buildPacked(items, &trace.Writes)
		_ = t.Walk(func(info NodeInfo) { trace.markCreated(info.ID) }) // hydrated: no fault
		trace.BulkLoaded = true
		trace.Grafted = len(items)
		return trace, nil
	}

	if len(items) >= rebuildFactor*t.size {
		t.rebuildWith(items, trace)
		trace.Grafted = len(items)
		return trace, nil
	}

	rootBefore := t.mbbOf(t.mustNode(t.root))
	t.ingestRuns(items, t.ingestOrder(items), trace)
	if !t.mbbOf(t.mustNode(t.root)).Equal(rootBefore) {
		trace.markMBBChanged(t.root)
	}
	return trace, nil
}

// rebuildWith merges the batch with the tree's existing items and bulk packs
// the union from scratch, freeing every old node first (their ids return to
// the free list; file-backed pages are released at the next flush, like any
// freed node). The trace is marked Rebuilt: node ids may have been
// reused, so consumers must drop per-node bookkeeping and recompute from a
// fresh walk rather than interpret the change sets incrementally.
func (t *Tree) rebuildWith(items []Item, trace *InsertTrace) {
	all := make([]Item, 0, t.size+len(items))
	ids := make([]NodeID, 0, 2*t.size/t.cfg.MaxEntries+2)
	_ = t.Walk(func(info NodeInfo) { // hydrated: no fault
		ids = append(ids, info.ID)
		if info.Leaf {
			for i := 0; i < info.Len(); i++ {
				all = append(all, Item{Object: info.Object(i), Rect: info.Rect(i)})
			}
		}
	})
	all = append(all, items...)
	for _, id := range ids {
		t.freeNode(id)
	}
	t.root = InvalidNode
	t.height = 0
	t.buildPacked(all, &trace.Writes)
	trace.Rebuilt = true
	_ = t.Walk(func(info NodeInfo) { trace.markCreated(info.ID) }) // hydrated: no fault
}

// ingestOrder keys every item with its Hilbert index and returns the batch's
// order as a permutation of items. The Hilbert variant keys with the tree's
// own curve (so run order agrees with the LHV ordering the variant
// maintains); the other variants key with a deterministic curve built over
// the batch bounds, which only has to provide locality. The sort is stable.
func (t *Tree) ingestOrder(items []Item) []Keyed {
	curve := t.curve
	if t.cfg.Variant != Hilbert || curve == nil {
		curve, _ = newCurveFor(itemsMBR(items), t.cfg.HilbertBits) // nil on degenerate bounds: keep input order
	}
	key := func(int) uint64 { return 0 }
	if curve != nil {
		key = func(i int) uint64 { return curve.IndexRect(items[i].Rect) }
	}
	return KeyOrder(len(items), key)
}

// insertOne is the classic per-item insert into a non-empty tree without
// the per-call epoch bookkeeping (InsertItems owns the epoch).
func (t *Tree) insertOne(it Item, trace *InsertTrace) {
	t.ovMarks.begin()
	t.insertAtLevel(Entry{Rect: it.Rect, Object: it.Object, Child: InvalidNode}, 0, trace, &t.ovMarks, false)
	t.size++
}

// ingestRuns partitions the sorted batch into runs sharing a target leaf
// and services each run with the cheapest applicable strategy.
func (t *Tree) ingestRuns(items []Item, ks []Keyed, trace *InsertTrace) {
	i := 0
	for i < len(ks) {
		trace.Runs++
		// One subtree choice for the whole run: descend once for the run
		// head, then extend the run while the next sorted item lies inside
		// the chosen leaf's MBB (zero enlargement, so the leaf stays a
		// natural target for the entire run).
		target := t.chooseSubtree(items[ks[i].Orig].Rect, 0)
		leaf := t.mustNode(target)
		leafMBB := t.mbbOf(leaf)
		j := i + 1
		for j < len(ks) && leafMBB.ContainsRect(items[ks[j].Orig].Rect) {
			j++
		}
		run := ks[i:j]

		// Large runs skip per-item insertion entirely: pack bottom-up and
		// graft. Needs a directory level to graft into (height >= 2).
		if len(run) >= t.cfg.MaxEntries && t.height >= 2 {
			t.graftRun(items, run, trace)
			i = j
			continue
		}

		// Direct placement: append into the chosen leaf while it has room,
		// with one touch/adjust pass for the whole stretch.
		placed := 0
		if leaf.count() < t.cfg.MaxEntries {
			n := t.mutable(leaf, min(len(run), t.cfg.MaxEntries-leaf.count()))
			before := t.mbbOf(n)
			for placed < len(run) && n.count() < t.cfg.MaxEntries {
				it := &items[run[placed].Orig]
				n.appendEntry(Entry{Rect: it.Rect, Object: it.Object, Child: InvalidNode})
				t.touch(n, n.count()-1)
				trace.Placements = append(trace.Placements, Placement{Node: n.id, Rect: n.rect(n.count()-1, t.cfg.Dims)})
				trace.Writes++
				placed++
			}
			if !t.mbbOf(n).Equal(before) {
				trace.markMBBChanged(n.id)
			}
			t.updateHilbertLHV(n)
			t.adjustUpward(n, trace)
			t.size += placed
			trace.RunPlaced += placed
		}
		if placed < len(run) {
			// The leaf is full: push one item through the classic path (it
			// overflows and splits/reinserts as usual), then re-choose a
			// target for whatever remains of the run.
			t.insertOne(items[run[placed].Orig], trace)
			trace.PerItem++
			placed++
		}
		i += placed
	}
}

// graftRun packs a run into leaves (the run is already in Hilbert order)
// and builds parent levels bottom-up while the level still satisfies the
// minimum fill and stays strictly below the root, then grafts each packed
// subtree as a sibling via one directory-level insertion.
func (t *Tree) graftRun(items []Item, run []Keyed, trace *InsertTrace) {
	// maxLevel caps the packed subtree's root so its graft target (one
	// level above) exists below or at the current root.
	maxLevel := t.height - 2
	current := t.packLeaves(items, run)
	for level := 0; ; level++ {
		for _, n := range current {
			trace.markCreated(n.id)
		}
		trace.GraftNodes += len(current)
		trace.Writes += len(current)
		if len(current) < t.cfg.MinEntries || level+1 > maxLevel {
			break
		}
		current = t.packParents(current, level+1)
	}
	for _, sub := range current {
		t.ovMarks.begin()
		t.insertAtLevel(Entry{Rect: t.mbbOf(sub), Child: sub.id}, int(sub.level)+1, trace, &t.ovMarks, false)
		trace.GraftSubtrees++
	}
	t.size += len(run)
	trace.Grafted += len(run)
}
