package rtree

import (
	"fmt"
	"math"
	"slices"

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
	for i := range items {
		if !items[i].Rect.Valid() || items[i].Rect.Dims() != t.cfg.Dims {
			return fmt.Errorf("rtree: item %d has invalid rectangle %v", i, items[i].Rect)
		}
	}
	if len(items) == 0 {
		return nil
	}
	t.buildPacked(items)
	return nil
}

// buildPacked bulk packs items into an empty tree: the variant's packing
// order (Hilbert order for the HR-tree, its defining construction;
// Sort-Tile-Recursive otherwise) is chopped into leaves, and parent levels
// are packed bottom-up until a single root remains.
func (t *Tree) buildPacked(items []Item) {
	var sorted []Item
	if t.cfg.Variant == Hilbert {
		sorted = t.sortHilbert(items)
	} else {
		sorted = t.sortSTR(items)
	}
	current := t.packLeaves(sorted)
	for level := 1; len(current) > 1; level++ {
		current = t.packParents(current, level)
	}
	t.root = current[0]
	t.height = t.mustNode(t.root).level + 1
	t.size = len(items)
}

// sortHilbert returns the items sorted by the Hilbert value of their centres
// — the leaf order of Hilbert packing (Kamel & Faloutsos). Keys are computed
// once per item, not once per comparison.
func (t *Tree) sortHilbert(items []Item) []Item {
	sorted := append([]Item(nil), items...)
	// Rebuild the curve over the actual data bounds: a curve spanning a much
	// larger configured universe would quantise the data into a handful of
	// cells and destroy the ordering.
	bounds := geom.MBROf(itemRects(sorted))
	if c, err := newCurveFor(bounds, t.cfg.HilbertBits); err == nil {
		t.curve = c
	}
	// Sort small (key, index) pairs — pointer-free, so swaps are cheap and
	// barrier-free — and apply the permutation once. Ordering by (key,
	// original index) is a total order, so any sort produces exactly the
	// permutation a stable sort by key would.
	ord := make([]hilbertOrd, len(sorted))
	for i := range sorted {
		ord[i] = hilbertOrd{key: t.curve.IndexRect(sorted[i].Rect), idx: int32(i)}
	}
	slices.SortFunc(ord, compareHilbertOrd)
	perm := make([]Item, len(sorted))
	for i, o := range ord {
		perm[i] = sorted[o.idx]
	}
	return perm
}

// hilbertOrd pairs a Hilbert key with the item's original position; the
// position breaks ties so the order is total (and therefore deterministic).
type hilbertOrd struct {
	key uint64
	idx int32
}

func compareHilbertOrd(a, b hilbertOrd) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return int(a.idx - b.idx)
}

// sortSTR returns the items in Sort-Tile-Recursive order (Leutenegger et
// al.): sort by the first dimension, cut into vertical slabs of S·M items,
// sort each slab by the next dimension, and recurse. Centre coordinates are
// computed once up front (row-major, dims per item) rather than allocating a
// centre point on every comparison.
func (t *Tree) sortSTR(items []Item) []Item {
	sorted := append([]Item(nil), items...)
	dims := t.cfg.Dims
	centers := make([]float64, len(sorted)*dims)
	for i := range sorted {
		for d := 0; d < dims; d++ {
			centers[i*dims+d] = (sorted[i].Rect.Lo[d] + sorted[i].Rect.Hi[d]) / 2
		}
	}
	scratch := &strScratch{
		ord:     make([]centerOrd, len(sorted)),
		items:   make([]Item, len(sorted)),
		centers: make([]float64, len(sorted)*dims),
	}
	t.strSort(sorted, centers, scratch, 0)
	return sorted
}

// centerOrd pairs one centre coordinate with the item's current position;
// the position breaks ties, making the order total — any sort then yields
// the permutation a stable sort by coordinate would.
type centerOrd struct {
	key float64
	idx int32
}

// strScratch holds the reusable buffers of one sortSTR invocation: the
// (key, index) pairs being sorted and the permutation targets. Slabs are
// sorted one at a time, so one set of buffers serves the whole recursion.
type strScratch struct {
	ord     []centerOrd
	items   []Item
	centers []float64
}

// strStageSort sorts a slab by one centre dimension: pointer-free (key,
// index) pairs are sorted and the resulting permutation is applied to the
// items and their centre rows in one pass.
func strStageSort(items []Item, centers []float64, dims, dim int, s *strScratch) {
	n := len(items)
	ord := s.ord[:n]
	for i := 0; i < n; i++ {
		ord[i] = centerOrd{key: centers[i*dims+dim], idx: int32(i)}
	}
	slices.SortFunc(ord, func(a, b centerOrd) int {
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		return int(a.idx - b.idx)
	})
	tmpI := s.items[:n]
	tmpC := s.centers[:n*dims]
	for i, o := range ord {
		tmpI[i] = items[o.idx]
		copy(tmpC[i*dims:(i+1)*dims], centers[int(o.idx)*dims:(int(o.idx)+1)*dims])
	}
	copy(items, tmpI)
	copy(centers, tmpC)
}

func (t *Tree) strSort(items []Item, centers []float64, scratch *strScratch, dim int) {
	if dim >= t.cfg.Dims {
		return
	}
	strStageSort(items, centers, t.cfg.Dims, dim, scratch)
	if dim == t.cfg.Dims-1 {
		return
	}
	// Number of leaves and slabs for the remaining dimensions.
	leaves := int(math.Ceil(float64(len(items)) / float64(t.cfg.MaxEntries)))
	slabs := int(math.Ceil(math.Pow(float64(leaves), 1/float64(t.cfg.Dims-dim))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := int(math.Ceil(float64(len(items)) / float64(slabs)))
	if slabSize < 1 {
		slabSize = 1
	}
	for start := 0; start < len(items); start += slabSize {
		end := start + slabSize
		if end > len(items) {
			end = len(items)
		}
		t.strSort(items[start:end], centers[start*t.cfg.Dims:end*t.cfg.Dims], scratch, dim+1)
	}
}

// packLeaves chops a sorted item list into new leaves of at most M slots,
// distributing the items evenly so that every leaf also respects the minimum
// fill (the root-only exception is handled by the caller), and returns the
// leaf ids in order. Each leaf copies its items' coordinates into one
// exactly-sized array.
func (t *Tree) packLeaves(items []Item) []NodeID {
	sizes := groupSizes(len(items), t.cfg.MaxEntries)
	ids := make([]NodeID, 0, len(sizes))
	run := make([]Entry, 0, t.cfg.MaxEntries)
	pos := 0
	for _, sz := range sizes {
		run = run[:0]
		for _, it := range items[pos : pos+sz] {
			run = append(run, Entry{Rect: it.Rect, Object: it.Object, Child: InvalidNode})
		}
		pos += sz
		n := t.newNode(true, 0)
		n.setEntries(run, t.cfg.Dims)
		t.touch(n)
		t.updateHilbertLHV(n)
		t.counter.Write(1)
		ids = append(ids, n.id)
	}
	return ids
}

// packParents groups the nodes of one level, in order, under new parents at
// the given level and returns the parents' ids.
func (t *Tree) packParents(children []NodeID, level int) []NodeID {
	sizes := groupSizes(len(children), t.cfg.MaxEntries)
	ids := make([]NodeID, 0, len(sizes))
	run := make([]Entry, 0, t.cfg.MaxEntries)
	pos := 0
	for _, sz := range sizes {
		parent := t.newNode(false, level)
		run = run[:0]
		for _, childID := range children[pos : pos+sz] {
			child := t.mustNode(childID)
			child.parent = parent.id
			run = append(run, Entry{Rect: child.mbb(), Child: childID})
		}
		pos += sz
		parent.setEntries(run, t.cfg.Dims)
		t.touch(parent)
		t.updateHilbertLHV(parent)
		t.counter.Write(1)
		ids = append(ids, parent.id)
	}
	return ids
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

func itemRects(items []Item) []geom.Rect {
	out := make([]geom.Rect, len(items))
	for i := range items {
		out[i] = items[i].Rect
	}
	return out
}

func newCurveFor(bounds geom.Rect, bits int) (*hilbert.Curve, error) {
	return hilbert.New(bounds.Expand(bounds.Margin()*0.01+1), bits)
}
