package rtree

import (
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
func (t *Tree) splitQuadratic(es []Entry) ([]Entry, []Entry) {
	m := t.cfg.MinEntries
	seedA, seedB := pickQuadraticSeeds(es)
	groupA := []Entry{es[seedA]}
	groupB := []Entry{es[seedB]}
	mbbA := es[seedA].Rect.Clone()
	mbbB := es[seedB].Rect.Clone()
	remaining := make([]Entry, 0, len(es)-2)
	for i := range es {
		if i != seedA && i != seedB {
			remaining = append(remaining, es[i])
		}
	}
	for len(remaining) > 0 {
		// If one group needs every remaining entry to reach the minimum
		// fill, assign them all to it.
		if len(groupA)+len(remaining) == m {
			groupA = append(groupA, remaining...)
			return groupA, groupB
		}
		if len(groupB)+len(remaining) == m {
			groupB = append(groupB, remaining...)
			return groupA, groupB
		}
		// Pick the entry with the maximum difference of enlargement costs.
		bestIdx, bestDiff := -1, -1.0
		var bestToA bool
		for i, e := range remaining {
			dA := mbbA.Enlargement(e.Rect)
			dB := mbbB.Enlargement(e.Rect)
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestIdx, bestDiff = i, diff
				switch {
				case dA < dB:
					bestToA = true
				case dB < dA:
					bestToA = false
				case mbbA.Volume() != mbbB.Volume():
					bestToA = mbbA.Volume() < mbbB.Volume()
				default:
					bestToA = len(groupA) <= len(groupB)
				}
			}
		}
		e := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		// mbbA/mbbB are clones owned by this split, so in-place extension is
		// safe and keeps the O(M) assignment rounds allocation-free.
		if bestToA {
			groupA = append(groupA, e)
			mbbA = mbbA.Extend(e.Rect)
		} else {
			groupB = append(groupB, e)
			mbbB = mbbB.Extend(e.Rect)
		}
	}
	return groupA, groupB
}

// pickQuadraticSeeds returns the indexes of the pair of entries whose
// combined MBB wastes the most area.
func pickQuadraticSeeds(es []Entry) (int, int) {
	seedA, seedB := 0, 1
	worst := -1.0
	for i := 0; i < len(es); i++ {
		volI := es[i].Rect.Volume()
		for j := i + 1; j < len(es); j++ {
			waste := es[i].Rect.UnionVolume(es[j].Rect) - volI - es[j].Rect.Volume()
			if waste > worst {
				worst, seedA, seedB = waste, i, j
			}
		}
	}
	return seedA, seedB
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
	sorted := append([]Entry(nil), es...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return t.curve.IndexRect(sorted[i].Rect) < t.curve.IndexRect(sorted[j].Rect)
	})
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
