package rtree

import (
	"fmt"
	"slices"
	"sort"

	"cbb/internal/geom"
)

// InsertTrace reports which nodes were touched by a single insertion. The
// clipped R-tree layer uses it to decide which clip tables must be
// recomputed and to attribute the recomputation to one of the three causes
// measured in the paper's Figure 12 (node split, MBB change, CBB-only
// change).
type InsertTrace struct {
	// Leaf is the leaf node that received the object.
	Leaf NodeID
	// Split lists pre-existing nodes that were split.
	Split []NodeID
	// Created lists nodes created during the insertion (split partners and,
	// possibly, a new root).
	Created []NodeID
	// MBBChanged lists pre-existing nodes whose MBB changed and that were
	// not split.
	MBBChanged []NodeID
	// Placements lists every (node, rectangle) pair that received an entry
	// during the insertion, including entries moved by forced reinsertion.
	// The clipped layer validity-checks each placement against the target
	// node's clip points.
	Placements []Placement
	// Reinserted counts entries force-reinserted by the R*-tree overflow
	// treatment.
	Reinserted int
	// Writes counts the node writes of the insertion, which it charged to
	// the tree's counter once, when it ended (on its error path too).
	Writes int
	// IngestStats reports how InsertItems routed its items; it is zero for
	// a single Insert.
	IngestStats

	// seen indexes membership of the three change sets above so the mark*
	// dedupe checks stay O(1). It is nil for single-insert traces, where the
	// sets stay tiny and the linear scans win; InsertItems allocates it so a
	// 64k-item batch does not pay O(n²) dedupe scans.
	seen map[NodeID]uint8
}

// Membership bits of InsertTrace.seen, mirroring the three change sets.
const (
	traceSplitBit uint8 = 1 << iota
	traceCreatedBit
	traceMBBBit
)

// Placement records that a rectangle was placed into a node. Rect is a view
// of the slot it landed in (see Entry).
type Placement struct {
	Node NodeID
	Rect geom.Rect
}

func (tr *InsertTrace) markSplit(id NodeID)   { tr.mark(&tr.Split, traceSplitBit, id) }
func (tr *InsertTrace) markCreated(id NodeID) { tr.mark(&tr.Created, traceCreatedBit, id) }

// markMBBChanged records id unless it is in any of the three sets already.
func (tr *InsertTrace) markMBBChanged(id NodeID) {
	if !tr.Changed(id) {
		tr.mark(&tr.MBBChanged, traceMBBBit, id)
	}
}

// mark appends id to one change set (whose membership bit is bit) once.
func (tr *InsertTrace) mark(set *[]NodeID, bit uint8, id NodeID) {
	if tr.seen != nil {
		if tr.seen[id]&bit != 0 {
			return
		}
		tr.seen[id] |= bit
	} else if slices.Contains(*set, id) {
		return
	}
	*set = append(*set, id)
}

// Changed reports whether the node appears in any of the trace's change
// sets.
func (tr *InsertTrace) Changed(id NodeID) bool {
	if tr.seen != nil {
		return tr.seen[id] != 0
	}
	return slices.Contains(tr.Split, id) || slices.Contains(tr.Created, id) || slices.Contains(tr.MBBChanged, id)
}

// levelMarks records which levels of one insertion already ran the R*-tree
// forced-reinsert treatment, one bit per level (a tree of fanout at least 4
// never reaches 64 levels). One lives on the Tree; begin opens a fresh
// insertion.
type levelMarks uint64

func (m *levelMarks) begin()              { *m = 0 }
func (m *levelMarks) done(level int) bool { return *m>>uint(level)&1 != 0 }
func (m *levelMarks) mark(level int)      { *m |= 1 << uint(level) }

// Insert adds an object with the given rectangle to the tree and returns a
// trace of the structural changes. The rectangle's dimensionality must match
// the tree's. On a writable file-backed tree the mutation happens in memory
// and is written back by the next FlushDirty; a read-only tree returns
// ErrReadOnly.
//
// Every node the insertion touches is cloned into the writer's directory
// first (copy-on-write), so concurrent readers keep traversing the
// previously published version; outside an explicit batch the new state is
// published to readers atomically when Insert returns.
func (t *Tree) Insert(r geom.Rect, obj ObjectID) (trace *InsertTrace, err error) {
	if err := t.ensureMutable(); err != nil {
		return nil, err
	}
	if !r.Valid() || r.Dims() != t.cfg.Dims {
		return nil, fmt.Errorf("rtree: invalid rectangle %v for a %d-dimensional tree", r, t.cfg.Dims)
	}
	trace = &InsertTrace{Leaf: InvalidNode}
	defer func() { t.chargeWrites(trace.Writes); t.autoCommit(err) }()
	if t.root == InvalidNode {
		root := t.newNode(true, 0)
		t.root = root.id
		t.height = 1
		root.appendEntry(Entry{Rect: r, Object: obj, Child: InvalidNode})
		t.touch(root)
		t.updateHilbertLHV(root)
		t.size++
		trace.Leaf = root.id
		trace.markCreated(root.id)
		trace.Placements = append(trace.Placements, Placement{Node: root.id, Rect: root.rect(0, t.cfg.Dims)})
		trace.Writes++
		return trace, nil
	}
	rootBefore := t.mbbOf(t.mustNode(t.root))
	t.ovMarks.begin()
	t.insertAtLevel(Entry{Rect: r, Object: obj, Child: InvalidNode}, 0, trace, &t.ovMarks, true)
	t.size++
	if !t.mbbOf(t.mustNode(t.root)).Equal(rootBefore) {
		trace.markMBBChanged(t.root)
	}
	return trace, nil
}

// insertAtLevel places a copy of the entry into a node at the given level,
// handling overflow. recordLeaf marks whether the chosen node should be
// recorded as the receiving leaf in the trace (true only for the original
// object insertion, not for re-insertions).
func (t *Tree) insertAtLevel(e Entry, level int, trace *InsertTrace, marks *levelMarks, recordLeaf bool) {
	target := t.chooseSubtree(e.Rect, level)
	n := t.mutable(t.mustNode(target), 1)
	if e.Child != InvalidNode {
		t.setParent(t.mustNode(e.Child).id, n.id)
	}
	before := t.mbbOf(n)
	n.appendEntry(e)
	t.touch(n, n.count()-1)
	if recordLeaf && n.leaf {
		trace.Leaf = n.id
	}
	trace.Placements = append(trace.Placements, Placement{Node: n.id, Rect: n.rect(n.count()-1, t.cfg.Dims)})
	trace.Writes++
	if n.count() > t.cfg.MaxEntries {
		t.handleOverflow(n, trace, marks)
		return
	}
	if !t.mbbOf(n).Equal(before) {
		trace.markMBBChanged(n.id)
	}
	t.updateHilbertLHV(n)
	t.adjustUpward(n, trace)
}

// chooseSubtree descends from the root to a node at the requested level,
// using the variant-specific selection policy, and returns its id.
func (t *Tree) chooseSubtree(r geom.Rect, level int) NodeID {
	cur := t.mustNode(t.root)
	for int(cur.level) > level {
		idx := t.chooseChild(cur, r)
		cur = t.mustNode(cur.child(idx))
	}
	return cur.id
}

// chooseChild picks the index of the child entry of n that should receive a
// rectangle r, per the variant's policy.
func (t *Tree) chooseChild(n *node, r geom.Rect) int {
	switch t.cfg.Variant {
	case RStar, RRStar:
		// When the children are leaves (or, more generally, one level above
		// the target in the R* formulation), minimise overlap enlargement;
		// higher up minimise volume enlargement. The RR*-tree additionally
		// breaks ties by margin (perimeter) enlargement, which matters for
		// degenerate rectangles.
		if n.level == 1 {
			return t.chooseMinOverlapChild(n, r)
		}
		return t.chooseMinEnlargementChild(n, r)
	case Hilbert:
		if t.curve != nil {
			return t.chooseHilbertChild(n, r)
		}
		return t.chooseMinEnlargementChild(n, r)
	default:
		return t.chooseMinEnlargementChild(n, r)
	}
}

// chooseMinEnlargementChild picks the child whose MBB r enlarges least, ties
// to the smaller volume, then to the first: Rect.Enlargement and Rect.Volume
// over the node's flat boxes, the same operations in the same order.
func (t *Tree) chooseMinEnlargementChild(n *node, r geom.Rect) int {
	dims := t.cfg.Dims
	lo, hi := r.Lo[:dims], r.Hi[:dims]
	best := 0
	var bestEnl, bestVol float64
	for i := range n.refs {
		box := n.boxes[i*2*dims:][:2*dims]
		uv, vol := 1.0, 1.0
		for d := range dims {
			l, h := box[d], box[dims+d]
			vol *= h - l
			if lo[d] < l {
				l = lo[d]
			}
			if hi[d] > h {
				h = hi[d]
			}
			uv *= h - l
		}
		enl := uv - vol
		if i == 0 || enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = i, enl, vol
		}
	}
	return best
}

func (t *Tree) chooseMinOverlapChild(n *node, r geom.Rect) int {
	type cand struct {
		idx        int
		overlapInc float64
		volInc     float64
		marginInc  float64
		vol        float64
	}
	best := cand{idx: -1}
	dims := t.cfg.Dims
	for i := range n.refs {
		ri := n.rect(i, dims)
		grown := ri.Union(r)
		var ovBefore, ovAfter float64
		for j := range n.refs {
			if j == i {
				continue
			}
			rj := n.rect(j, dims)
			ovBefore += ri.OverlapVolume(rj)
			ovAfter += grown.OverlapVolume(rj)
		}
		c := cand{
			idx:        i,
			overlapInc: ovAfter - ovBefore,
			volInc:     ri.Enlargement(r),
			marginInc:  ri.MarginEnlargement(r),
			vol:        ri.Volume(),
		}
		if best.idx < 0 || less(c, best, t.cfg.Variant) {
			best = c
		}
	}
	return best.idx
}

// less orders two subtree candidates. The R*-tree compares overlap
// enlargement, then volume enlargement, then volume; the RR*-tree inserts a
// margin-enlargement comparison before volume so that zero-volume
// rectangles (points, axis-parallel segments) are still discriminated.
func less(a, b struct {
	idx        int
	overlapInc float64
	volInc     float64
	marginInc  float64
	vol        float64
}, v Variant) bool {
	if a.overlapInc != b.overlapInc {
		return a.overlapInc < b.overlapInc
	}
	if a.volInc != b.volInc {
		return a.volInc < b.volInc
	}
	if v == RRStar && a.marginInc != b.marginInc {
		return a.marginInc < b.marginInc
	}
	return a.vol < b.vol
}

func (t *Tree) chooseHilbertChild(n *node, r geom.Rect) int {
	h := t.curve.IndexRect(r)
	best := -1
	for i := range n.refs {
		lhv := t.lhvOf(t.mustNode(n.child(i)).id)
		if lhv >= h {
			if best < 0 || t.lhvOf(n.child(best)) > lhv {
				best = i
			}
		}
	}
	if best >= 0 {
		return best
	}
	// All children have smaller LHV: take the one with the largest.
	best = 0
	for i := range n.refs {
		if t.lhvOf(n.child(i)) > t.lhvOf(n.child(best)) {
			best = i
		}
	}
	return best
}

// handleOverflow resolves an over-full node either by forced reinsertion
// (R*-tree, once per level per insertion) or by splitting.
func (t *Tree) handleOverflow(n *node, trace *InsertTrace, marks *levelMarks) {
	if t.cfg.Variant == RStar && n.id != t.root && !marks.done(int(n.level)) {
		marks.mark(int(n.level))
		t.forcedReinsert(n, trace, marks)
		return
	}
	t.splitNode(n, trace, marks)
}

// reinsertFraction is the share of a node's capacity the R*-tree
// force-reinserts on the first overflow of a level: Beckmann et al.'s 30 %.
const reinsertFraction = 0.3

// forcedReinsert removes the reinsertFraction of entries whose centres are
// farthest from the node's centre and re-inserts them at the same level (the
// R*-tree overflow treatment).
func (t *Tree) forcedReinsert(n *node, trace *InsertTrace, marks *levelMarks) {
	centre := t.mbbOf(n).Center()
	type distEntry struct {
		e Entry
		d float64
	}
	ds := make([]distEntry, n.count())
	for i, e := range n.entries(t.cfg.Dims) {
		ds[i] = distEntry{e: e, d: e.Rect.Center().DistSq(centre)}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].d > ds[j].d })
	p := int(float64(t.cfg.MaxEntries) * reinsertFraction)
	if p < 1 {
		p = 1
	}
	if p >= len(ds) {
		p = len(ds) - 1
	}
	removed := make([]Entry, p)
	for i := 0; i < p; i++ {
		removed[i] = ds[i].e
	}
	kept := make([]Entry, 0, len(ds)-p)
	for i := p; i < len(ds); i++ {
		kept = append(kept, ds[i].e)
	}
	n.setEntries(kept, t.cfg.Dims)
	t.touch(n)
	trace.markMBBChanged(n.id)
	t.updateHilbertLHV(n)
	t.adjustUpward(n, trace)
	trace.Reinserted += len(removed)
	// Reinsert far entries first (the R*-tree's "reinsert" ordering).
	for _, e := range removed {
		t.insertAtLevel(e, int(n.level), trace, marks, false)
	}
}

// splitNode splits an over-full node with the variant's split algorithm and
// pushes the new sibling into the parent (growing the tree if the root was
// split).
func (t *Tree) splitNode(n *node, trace *InsertTrace, marks *levelMarks) {
	dims := t.cfg.Dims
	groupA, groupB := t.splitEntries(n.entries(dims))
	sibling := t.newNode(n.leaf, int(n.level))
	n.setEntries(groupA, dims)
	sibling.setEntries(groupB, dims)
	t.touch(n)
	t.touch(sibling)
	if !n.leaf {
		for i := range sibling.refs {
			t.setParent(t.mustNode(sibling.child(i)).id, sibling.id)
		}
		for i := range n.refs {
			t.setParent(t.mustNode(n.child(i)).id, n.id)
		}
	}
	t.updateHilbertLHV(n)
	t.updateHilbertLHV(sibling)
	trace.markSplit(n.id)
	trace.markCreated(sibling.id)
	trace.Writes += 2

	if n.id == t.root {
		newRoot := t.newNode(false, int(n.level)+1)
		newRoot.appendEntry(Entry{Rect: t.mbbOf(n), Child: n.id})
		newRoot.appendEntry(Entry{Rect: t.mbbOf(sibling), Child: sibling.id})
		t.touch(newRoot)
		t.setParent(n.id, newRoot.id)
		t.setParent(sibling.id, newRoot.id)
		t.root = newRoot.id
		t.height = int(newRoot.level) + 1
		t.updateHilbertLHV(newRoot)
		trace.markCreated(newRoot.id)
		trace.Writes++
		return
	}

	parent := t.mustNode(t.parentOf(n.id))
	idx := t.childIndex(parent, n.id)
	before := t.mbbOf(parent)
	parent = t.setRect(parent, idx, t.mbbOf(n), 1)
	t.setParent(sibling.id, parent.id)
	parent.appendEntry(Entry{Rect: t.mbbOf(sibling), Child: sibling.id})
	t.touch(parent, idx, parent.count()-1)
	trace.Writes++
	if parent.count() > t.cfg.MaxEntries {
		t.handleOverflow(parent, trace, marks)
		return
	}
	if !t.mbbOf(parent).Equal(before) {
		trace.markMBBChanged(parent.id)
	}
	t.updateHilbertLHV(parent)
	t.adjustUpward(parent, trace)
}

// adjustUpward propagates MBB (and Hilbert LHV) changes from n towards the
// root, recording every node whose MBB actually changed.
func (t *Tree) adjustUpward(n *node, trace *InsertTrace) {
	cur := n
	for p := t.parentOf(cur.id); p != InvalidNode; p = t.parentOf(cur.id) {
		parent := t.mustNode(p)
		idx := t.childIndex(parent, cur.id)
		newMBB := t.mbbOf(cur)
		changed := !parent.rect(idx, t.cfg.Dims).Equal(newMBB)
		if changed {
			parent = t.setRect(parent, idx, newMBB, 0)
			t.touch(parent, idx)
			trace.markMBBChanged(cur.id)
			trace.Writes++
		}
		t.updateHilbertLHV(parent)
		if !changed && t.cfg.Variant != Hilbert {
			return
		}
		cur = parent
	}
}

// childIndex finds the entry slot of child within parent. It panics if the
// child is not present, which would indicate a corrupted tree.
func (t *Tree) childIndex(parent *node, child NodeID) int {
	for i := range parent.refs {
		if parent.child(i) == child {
			return i
		}
	}
	panic(fmt.Sprintf("rtree: node %d not found in parent %d", child, parent.id))
}

// updateHilbertLHV refreshes the largest Hilbert value the node's directory
// slot records (Hilbert variant only; a no-op otherwise), copying the slot's
// chunk only when the value changes.
func (t *Tree) updateHilbertLHV(n *node) {
	if t.cfg.Variant != Hilbert || t.curve == nil {
		return
	}
	if h := t.hilbertLHV(n); t.lhvOf(n.id) != h {
		t.slotW(n.id).lhv = h
	}
}

// hilbertLHV computes the node's largest Hilbert value: over its objects on a
// leaf, over its children's recorded LHVs on a directory.
func (t *Tree) hilbertLHV(n *node) uint64 {
	var max uint64
	if n.leaf {
		for i := range n.refs {
			if h := t.curve.IndexRect(n.rect(i, t.cfg.Dims)); h > max {
				max = h
			}
		}
	} else {
		for i := range n.refs {
			if h := t.lhvOf(t.mustNode(n.child(i)).id); h > max {
				max = h
			}
		}
	}
	return max
}
