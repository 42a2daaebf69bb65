package rtree

import (
	"math"
	"slices"
	"sort"

	"cbb/internal/geom"
)

// splitEntries distributes an over-full entry set (M+1 entries) into two
// groups according to the variant's split algorithm. Both groups respect the
// minimum fill m.
func (t *Tree) splitEntries(es []Entry) (groupA, groupB []Entry) {
	switch t.cfg.Variant {
	case RStar:
		return t.splitRStar(es, false)
	case RRStar:
		return t.splitRStar(es, true)
	case Hilbert:
		if t.curve != nil {
			return t.splitHilbert(es)
		}
		return t.splitQuadratic(es)
	default:
		return t.splitQuadratic(es)
	}
}

// --- Guttman quadratic split ------------------------------------------------

// splitQuadratic implements Guttman's quadratic-cost split: pick the two
// entries that would waste the most area if grouped together as seeds, then
// repeatedly assign the entry with the greatest preference difference to the
// group whose MBB it enlarges least, while honouring the minimum fill.
//
// It works on one flat copy of the entries' coordinates with every entry's
// volume computed once, and keeps each unassigned entry's enlargement of both
// groups, recomputing a group's column only when its MBB grew. The float
// operations are Rect.Volume's, UnionVolume's and Enlargement's in their order,
// and every scan keeps the first of equal candidates, so the groups are those
// of the slot-by-slot code kept in split_reference_test.go. One case differs:
// when no enlargement difference of a round compares — an entry whose volume
// overflows makes them all NaN, and the old code then indexed slot -1 — the
// round takes the first unassigned entry.
func (t *Tree) splitQuadratic(es []Entry) ([]Entry, []Entry) {
	m, dims, n := t.cfg.MinEntries, t.cfg.Dims, len(es)
	w := 2 * dims
	boxes := make([]float64, 0, n*w)
	for _, e := range es {
		boxes = append(append(boxes, e.Rect.Lo...), e.Rect.Hi...)
	}
	vols := make([]float64, n)
	for i := range vols {
		vols[i] = boxVolume(boxes[i*w:][:w], dims)
	}
	seedA, seedB := quadraticSeeds(boxes, vols, dims)
	groups := [2][]int{{seedA}, {seedB}}
	mbbs := [2][]float64{slices.Clone(boxes[seedA*w:][:w]), slices.Clone(boxes[seedB*w:][:w])}
	gvol := [2]float64{vols[seedA], vols[seedB]}
	rem := make([]int, 0, n-2)
	for i := range n {
		if i != seedA && i != seedB {
			rem = append(rem, i)
		}
	}
	// enl[g][i] is entry i's enlargement of group g's MBB.
	var enl [2][]float64
	for g := range enl {
		enl[g] = make([]float64, n)
		enlargements(enl[g], mbbs[g], gvol[g], boxes, rem, dims)
	}
	for len(rem) > 0 {
		// If one group needs every remaining entry to reach the minimum
		// fill, assign them all to it.
		if len(groups[0])+len(rem) == m {
			groups[0] = append(groups[0], rem...)
			break
		}
		if len(groups[1])+len(rem) == m {
			groups[1] = append(groups[1], rem...)
			break
		}
		// Pick the entry with the maximum difference of enlargement costs.
		best, bestDiff := 0, -1.0
		for k, i := range rem {
			diff := enl[0][i] - enl[1][i]
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				best, bestDiff = k, diff
			}
		}
		i := rem[best]
		rem = append(rem[:best], rem[best+1:]...)
		// Into the group it enlarges less; on a tie the smaller group, then
		// the one with fewer entries, A when even.
		g := 1
		switch dA, dB := enl[0][i], enl[1][i]; {
		case dA < dB:
			g = 0
		case dB < dA:
		case gvol[0] != gvol[1]:
			if gvol[0] < gvol[1] {
				g = 0
			}
		case len(groups[0]) <= len(groups[1]):
			g = 0
		}
		groups[g] = append(groups[g], i)
		if extendBox(mbbs[g], boxes[i*w:][:w], dims) {
			gvol[g] = boxVolume(mbbs[g], dims)
			enlargements(enl[g], mbbs[g], gvol[g], boxes, rem, dims)
		}
	}
	var out [2][]Entry
	for g, idx := range groups {
		out[g] = make([]Entry, len(idx))
		for k, i := range idx {
			out[g][k] = es[i]
		}
	}
	return out[0], out[1]
}

// quadraticSeeds returns the indexes of the pair of records whose combined
// MBB wastes the most area, vols holding each record's volume: the first
// such pair in (i, j) order, or (0, 1) when no waste exceeds -1. Two
// dimensions are unrolled, with Rect.UnionVolume's bound choices made on
// floatKey images of the coordinates — an integer comparison ordering the
// floats as < does, so the choice compiles to a conditional move instead of a
// branch that mispredicts — and float64() keeping the volume a product of its
// own, unfused into the subtraction, as UnionVolume returns it.
func quadraticSeeds(boxes, vols []float64, dims int) (int, int) {
	seedA, seedB := 0, 1
	worst := -1.0
	w := 2 * dims
	if dims != 2 {
		for i := range vols {
			a := boxes[i*w:][:w]
			for j := i + 1; j < len(vols); j++ {
				if waste := unionVolume(a, boxes[j*w:][:w], dims) - vols[i] - vols[j]; waste > worst {
					worst, seedA, seedB = waste, i, j
				}
			}
		}
		return seedA, seedB
	}
	keys := make([]uint64, len(boxes))
	for k, v := range boxes {
		keys[k] = floatKey(v)
	}
	for i := range vols {
		a, ka, volI := boxes[i*w:][:w], keys[i*w:][:w], vols[i]
		for j := i + 1; j < len(vols); j++ {
			b, kb := boxes[j*w:][:w], keys[j*w:][:w]
			u := float64((pick(kb[2] > ka[2], b[2], a[2]) - pick(kb[0] < ka[0], b[0], a[0])) *
				(pick(kb[3] > ka[3], b[3], a[3]) - pick(kb[1] < ka[1], b[1], a[1])))
			if waste := u - volI - vols[j]; waste > worst {
				worst, seedA, seedB = waste, i, j
			}
		}
	}
	return seedA, seedB
}

// pick is x when c holds and y otherwise, selected on the bits.
func pick(c bool, x, y float64) float64 {
	bx, by := math.Float64bits(x), math.Float64bits(y)
	if c {
		by = bx
	}
	return math.Float64frombits(by)
}

// enlargements sets dst[i], for each record i in idx, to how much it enlarges
// mbb, whose volume is vol: Rect.Enlargement on flat records.
func enlargements(dst, mbb []float64, vol float64, boxes []float64, idx []int, dims int) {
	w := 2 * dims
	for _, i := range idx {
		dst[i] = unionVolume(mbb, boxes[i*w:][:w], dims) - vol
	}
}

// boxVolume is Rect.Volume of one flat record.
func boxVolume(box []float64, dims int) float64 {
	v := 1.0
	for d := 0; d < dims; d++ {
		v *= box[dims+d] - box[d]
	}
	return v
}

// unionVolume is Rect.UnionVolume of two flat records, a first.
func unionVolume(a, b []float64, dims int) float64 {
	v := 1.0
	for d := 0; d < dims; d++ {
		lo, hi := a[d], a[dims+d]
		if b[d] < lo {
			lo = b[d]
		}
		if b[dims+d] > hi {
			hi = b[dims+d]
		}
		v *= hi - lo
	}
	return v
}

// extendBox is Rect.Extend on flat records: it grows mbb to cover box in
// place and reports whether any coordinate moved.
func extendBox(mbb, box []float64, dims int) bool {
	grew := false
	for d := 0; d < dims; d++ {
		if box[d] < mbb[d] {
			mbb[d], grew = box[d], true
		}
		if box[dims+d] > mbb[dims+d] {
			mbb[dims+d], grew = box[dims+d], true
		}
	}
	return grew
}

// --- R* / RR* topological split ----------------------------------------------

// splitRStar implements the R*-tree split: choose the split axis by the
// minimum total margin over all candidate distributions, then the
// distribution with the least overlap (volume), breaking ties by total
// volume. With revised=true (the RR*-tree), overlap is measured by perimeter
// when every candidate has zero volume overlap, which discriminates
// distributions of degenerate rectangles — the perimeter-based goal function
// of the revised R*-tree.
func (t *Tree) splitRStar(es []Entry, revised bool) ([]Entry, []Entry) {
	m := t.cfg.MinEntries
	dims := t.cfg.Dims
	n := len(es)

	// Axis choice: total margin over all candidate distributions. The left
	// and right MBBs of the distributions are prefix/suffix unions of the
	// sorted order, so one O(n) scan per order replaces the O(n²) rebuild
	// of each group's MBB from scratch.
	suffix := make([]geom.Rect, n) // suffix[i] = MBB of sorted[i:]
	suffixScan := func(sorted []Entry) {
		run := sorted[n-1].Rect.Clone()
		suffix[n-1] = run
		for i := n - 2; i >= m-1; i-- {
			run = run.Clone().Extend(sorted[i].Rect)
			suffix[i] = run
		}
	}
	bestAxis, bestAxisMargin := -1, 0.0
	for d := 0; d < dims; d++ {
		margin := 0.0
		for _, byUpper := range []bool{false, true} {
			sorted := sortEntriesByAxis(es, d, byUpper)
			suffixScan(sorted)
			pre := sorted[0].Rect.Clone()
			for i := 1; i < m; i++ {
				pre = pre.Extend(sorted[i].Rect)
			}
			for k := m; k <= n-m; k++ {
				margin += pre.Margin() + suffix[k].Margin()
				if k < n-m {
					pre = pre.Extend(sorted[k].Rect)
				}
			}
		}
		if bestAxis < 0 || margin < bestAxisMargin {
			bestAxis, bestAxisMargin = d, margin
		}
	}

	// Distribution choice along the best axis: minimum overlap (volume, or
	// margin for the revised tree when every candidate's volume overlap is
	// zero), ties broken by total volume. Candidates are scored in place —
	// only the winning distribution's groups are materialised.
	type candidate struct {
		byUpper       bool
		k             int
		overlapVol    float64
		overlapMargin float64
		totalVol      float64
	}
	cands := make([]candidate, 0, 2*(n-2*m+1))
	for _, byUpper := range []bool{false, true} {
		sorted := sortEntriesByAxis(es, bestAxis, byUpper)
		suffixScan(sorted)
		pre := sorted[0].Rect.Clone()
		for i := 1; i < m; i++ {
			pre = pre.Extend(sorted[i].Rect)
		}
		for k := m; k <= n-m; k++ {
			ovVol, ovMargin, _ := pre.IntersectionMeasures(suffix[k])
			cands = append(cands, candidate{
				byUpper: byUpper, k: k,
				overlapVol: ovVol, overlapMargin: ovMargin,
				totalVol: pre.Volume() + suffix[k].Volume(),
			})
			if k < n-m {
				pre = pre.Extend(sorted[k].Rect)
			}
		}
	}

	useMargin := false
	if revised {
		useMargin = true
		for _, c := range cands {
			if c.overlapVol > 0 {
				useMargin = false
				break
			}
		}
	}
	best := 0
	for i := 1; i < len(cands); i++ {
		a, b := cands[i], cands[best]
		var aKey, bKey float64
		if useMargin {
			aKey, bKey = a.overlapMargin, b.overlapMargin
		} else {
			aKey, bKey = a.overlapVol, b.overlapVol
		}
		if aKey < bKey || (aKey == bKey && a.totalVol < b.totalVol) {
			best = i
		}
	}
	sorted := sortEntriesByAxis(es, bestAxis, cands[best].byUpper)
	left := append([]Entry(nil), sorted[:cands[best].k]...)
	right := append([]Entry(nil), sorted[cands[best].k:]...)
	return left, right
}

func sortEntriesByAxis(es []Entry, axis int, byUpper bool) []Entry {
	out := append([]Entry(nil), es...)
	sort.SliceStable(out, func(i, j int) bool {
		if byUpper {
			if out[i].Rect.Hi[axis] != out[j].Rect.Hi[axis] {
				return out[i].Rect.Hi[axis] < out[j].Rect.Hi[axis]
			}
			return out[i].Rect.Lo[axis] < out[j].Rect.Lo[axis]
		}
		if out[i].Rect.Lo[axis] != out[j].Rect.Lo[axis] {
			return out[i].Rect.Lo[axis] < out[j].Rect.Lo[axis]
		}
		return out[i].Rect.Hi[axis] < out[j].Rect.Hi[axis]
	})
	return out
}

// --- Hilbert split -------------------------------------------------------------

// splitHilbert splits an over-full node by Hilbert order of the entry
// centres, keeping the curve-order invariant of the Hilbert R-tree. (The
// original HR-tree defers splits with 2-to-3 redistribution; plain halving
// is the standard simplification and only affects occupancy, not
// correctness.)
func (t *Tree) splitHilbert(es []Entry) ([]Entry, []Entry) {
	order := KeyOrder(len(es), func(i int) uint64 { return t.curve.IndexRect(es[i].Rect) })
	sorted := make([]Entry, len(es))
	for k, o := range order {
		sorted[k] = es[o.Orig]
	}
	half := len(sorted) / 2
	if half < t.cfg.MinEntries {
		half = t.cfg.MinEntries
	}
	if len(sorted)-half < t.cfg.MinEntries {
		half = len(sorted) - t.cfg.MinEntries
	}
	left := append([]Entry(nil), sorted[:half]...)
	right := append([]Entry(nil), sorted[half:]...)
	return left, right
}
