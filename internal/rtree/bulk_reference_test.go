package rtree

import (
	"math"
	"slices"

	"cbb/internal/geom"
)

// This file keeps the bulk-load ordering as it stood before the permutation
// build — sortHilbert and sortSTR with their helpers, verbatim — as the
// reference bulk_order_test.go compares packingOrder against slot for slot.
// Both copy and move the items; the production code no longer does.

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

func itemRects(items []Item) []geom.Rect {
	out := make([]geom.Rect, len(items))
	for i := range items {
		out[i] = items[i].Rect
	}
	return out
}
