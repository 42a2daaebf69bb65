package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"cbb/internal/fanout"
	"cbb/internal/geom"
	"cbb/internal/hilbert"
)

// Item is an (object id, rectangle) pair for bulk loading.
type Item struct {
	Object ObjectID
	Rect   geom.Rect
}

// BulkLoad builds the tree from scratch out of the given items using the
// loading strategy natural to the variant: Hilbert-order packing for the
// HR-tree (its defining construction) and Sort-Tile-Recursive packing for
// the other variants when bulk loading is explicitly requested. The tree
// must be empty.
func (t *Tree) BulkLoad(items []Item) (err error) {
	if err := t.ensureMutable(); err != nil {
		return err
	}
	t.beginMutation()
	defer func() { t.autoCommit(err) }()
	defer recoverFault(&err)
	if t.size != 0 || t.root != InvalidNode {
		return fmt.Errorf("rtree: BulkLoad requires an empty tree")
	}
	if err := t.checkItems(items); err != nil || len(items) == 0 {
		return err
	}
	t.buildPacked(items)
	return nil
}

// checkItems rejects a batch holding a rectangle the tree cannot index.
func (t *Tree) checkItems(items []Item) error {
	for i := range items {
		if !items[i].Rect.Valid() || items[i].Rect.Dims() != t.cfg.Dims {
			return fmt.Errorf("rtree: item %d has invalid rectangle %v for a %d-dimensional tree", i, items[i].Rect, t.cfg.Dims)
		}
	}
	return nil
}

// buildPacked bulk packs items into an empty tree: the variant's packing
// order (Hilbert order for the HR-tree, its defining construction;
// Sort-Tile-Recursive otherwise) is chopped into leaves, and parent levels
// are packed bottom-up until a single root remains. Both stages fan out over
// GOMAXPROCS and neither copies or moves an item: the order is a permutation
// of 16-byte records and a leaf takes its coordinates straight from the
// caller's slice. The tree — ids, slots, page bytes — never depends on the
// worker count.
func (t *Tree) buildPacked(items []Item) {
	order := t.packingOrder(items, fanout.Workers(0, len(items), sortRunItems))
	current := t.packLeaves(items, order)
	for level := 1; len(current) > 1; level++ {
		current = t.packParents(current, level)
	}
	t.root = current[0].id
	t.height = current[0].level + 1
	t.size = len(items)
}

// sortRunItems is the fewest items worth a goroutine of their own while
// ordering; packChunk is the number of nodes a packing worker takes at a time.
const sortRunItems, packChunk = 8192, 32

// ordRec is one item's place in the packing order: pointer-free, so sorting
// moves 16 bytes without write barriers while the items stay put.
type ordRec struct {
	key  uint64 // Hilbert index, or floatKey of one centre coordinate
	orig int32  // index into the caller's items
}

// floatKey maps a non-NaN float64 to a uint64 that orders the same way; +0
// folds the two zeros, which compare equal, onto one key.
func floatKey(f float64) uint64 {
	b := math.Float64bits(f + 0)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// packingOrder returns the variant's packing order as a permutation of
// items, computed by up to the given number of goroutines. Hilbert packing
// (Kamel & Faloutsos) is one sort by the Hilbert value of the centres.
// Sort-Tile-Recursive (Leutenegger et al.) sorts by the first centre
// coordinate, cuts the order into vertical slabs of S·M items, sorts each
// slab by the next coordinate, and recurses; the slabs of one stage are
// independent, so they are sorted concurrently.
func (t *Tree) packingOrder(items []Item, workers int) []ordRec {
	order := make([]ordRec, len(items))
	dims := t.cfg.Dims
	if t.cfg.Variant == Hilbert {
		// Rebuild the curve over the actual data bounds: a curve spanning a
		// much larger configured universe would quantise the data into a
		// handful of cells and destroy the ordering.
		if c, err := newCurveFor(itemsMBR(items), t.cfg.HilbertBits); err == nil {
			t.curve = c
		}
		dims = 1
	}
	// key fills in one stage's sort keys of order[lo:hi].
	key := func(lo, hi, dim int) {
		for i := lo; i < hi; i++ {
			o := &order[i]
			if dim == 0 {
				o.orig = int32(i)
			}
			if r := items[o.orig].Rect; t.cfg.Variant == Hilbert {
				o.key = t.curve.IndexRect(r)
			} else {
				o.key = floatKey((r.Lo[dim] + r.Hi[dim]) / 2)
			}
		}
	}
	fanout.ForEachChunk(len(order), workers, sortRunItems, func(_, lo, hi int) { key(lo, hi, 0) })
	tmp := make([]ordRec, len(order))
	sortOrd(order, tmp, workers)
	slabs := []int{0, len(order)} // boundaries of the current stage's slabs
	for dim := 1; dim < dims; dim++ {
		// Cut every slab for the remaining dimensions as the recursion
		// would: by its number of leaves, then of sub-slabs.
		var next []int
		for s := 0; s+1 < len(slabs); s++ {
			n := slabs[s+1] - slabs[s]
			leaves := int(math.Ceil(float64(n) / float64(t.cfg.MaxEntries)))
			cuts := max(1, int(math.Ceil(math.Pow(float64(leaves), 1/float64(dims-dim+1)))))
			size := max(1, int(math.Ceil(float64(n)/float64(cuts))))
			for lo := slabs[s]; lo < slabs[s+1]; lo += size {
				next = append(next, lo)
			}
		}
		slabs = append(next, len(order))
		fanout.ForEachChunk(len(slabs)-1, workers, 1, func(_, s, _ int) {
			key(slabs[s], slabs[s+1], dim)
			sortOrd(order[slabs[s]:slabs[s+1]], tmp[slabs[s]:slabs[s+1]], 1)
		})
	}
	return order
}

// sortOrd sorts recs by key, stably — ties keep the order they came in, the
// order of the previous stage, so the result is the same permutation whatever
// the worker count — through tmp (as long as recs). With several workers two
// parts, sized by their share of the workers, are sorted concurrently, each
// the same way, and merged; one worker runs a byte-wise LSD radix sort that
// skips the bytes every key shares.
func sortOrd(recs, tmp []ordRec, workers int) {
	if len(recs) < 128 {
		slices.SortStableFunc(recs, func(a, b ordRec) int { return cmp.Compare(a.key, b.key) })
		return
	}
	if workers > 1 {
		mid := len(recs) * (workers / 2) / workers
		fanout.ForEachChunk(2, 2, 1, func(_, part, _ int) {
			if part == 0 {
				sortOrd(recs[:mid], tmp[:mid], workers/2)
			} else {
				sortOrd(recs[mid:], tmp[mid:], workers-workers/2)
			}
		})
		copy(tmp, recs)
		a, b, dst := tmp[:mid], tmp[mid:], recs
		for len(a) > 0 && len(b) > 0 {
			if b[0].key < a[0].key {
				dst[0], b = b[0], b[1:]
			} else {
				dst[0], a = a[0], a[1:]
			}
			dst = dst[1:]
		}
		copy(dst[copy(dst, a):], b)
		return
	}
	var counts [8][256]int
	for i := range recs {
		for b := range counts {
			counts[b][byte(recs[i].key>>(8*b))]++
		}
	}
	src, dst := recs, tmp
	for b := range counts {
		c := &counts[b]
		if c[byte(src[0].key>>(8*b))] == len(src) {
			continue
		}
		sum := 0
		for v := range c {
			c[v], sum = sum, sum+c[v]
		}
		for i := range src {
			v := byte(src[i].key >> (8 * b))
			dst[c[v]] = src[i]
			c[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &recs[0] {
		copy(recs, src)
	}
}

// packLevel creates the nodes of one packed level over count inputs — at
// most M a node, spread evenly so that every node also respects the minimum
// fill (the root-only exception is the caller's) — and fills them. Ids are
// allocated serially and in order, so ids, free-list reuse and dirty marks do
// not depend on the worker count; fill then runs concurrently, a node at a
// time over the input range it owns, appending to exactly-sized boxes and
// refs. A level under packChunk nodes (a grafted run) starts no goroutine.
func (t *Tree) packLevel(count int, leaf bool, level int, fill func(n *node, lo, hi int)) []*node {
	sizes := groupSizes(count, t.cfg.MaxEntries)
	nodes := make([]*node, len(sizes))
	starts := make([]int, len(sizes)+1)
	for i := range nodes {
		nodes[i] = t.newNode(leaf, level)
		starts[i+1] = starts[i] + sizes[i]
	}
	t.counter.Write(int64(len(nodes)))
	fanout.ForEachChunk(len(nodes), 0, packChunk, func(_, a, b int) {
		for i := a; i < b; i++ {
			n := nodes[i]
			n.boxes = make([]float64, 0, sizes[i]*2*t.cfg.Dims)
			n.refs = make([]int64, 0, sizes[i])
			fill(n, starts[i], starts[i+1])
			n.syncDerived(t.cfg.Dims)
			t.updateHilbertLHV(n)
		}
	})
	return nodes
}

// packLeaves chops the items the order names, in that order, into new leaves
// and returns them in order.
func (t *Tree) packLeaves(items []Item, order []ordRec) []*node {
	return t.packLevel(len(order), true, 0, func(n *node, lo, hi int) {
		for _, o := range order[lo:hi] {
			it := &items[o.orig]
			n.boxes = append(append(n.boxes, it.Rect.Lo...), it.Rect.Hi...)
			n.refs = append(n.refs, int64(it.Object))
		}
	})
}

// packParents groups the nodes of one level, in order, under new parents at
// the given level and returns the parents.
func (t *Tree) packParents(children []*node, level int) []*node {
	return t.packLevel(len(children), false, level, func(n *node, lo, hi int) {
		for _, child := range children[lo:hi] {
			child.parent = n.id
			// The child was just packed: syncDerived left its MBB in qmbb.
			n.boxes = append(n.boxes, child.qmbb...)
			n.refs = append(n.refs, int64(child.id))
		}
	})
}

// groupSizes splits n items into ceil(n/capacity) groups of as-even-as-
// possible sizes. For at least two groups each size is at least capacity/2,
// which satisfies any legal minimum fill.
func groupSizes(n, capacity int) []int {
	if n == 0 {
		return nil
	}
	groups := (n + capacity - 1) / capacity
	base := n / groups
	extra := n % groups
	sizes := make([]int, groups)
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes
}

// itemsMBR returns the MBB of the items as a fresh rectangle.
func itemsMBR(items []Item) geom.Rect {
	var out geom.Rect
	for i := range items {
		out = out.Extend(items[i].Rect)
	}
	return out
}

func newCurveFor(bounds geom.Rect, bits int) (*hilbert.Curve, error) {
	return hilbert.New(bounds.Expand(bounds.Margin()*0.01+1), bits)
}
