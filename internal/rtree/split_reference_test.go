package rtree

import "cbb/internal/geom"

// This file keeps Guttman's quadratic split and the minimum-enlargement
// subtree choice as they stood before the flat write kernels — the bodies of
// splitQuadratic, pickQuadraticSeeds and chooseMinEnlargementChild verbatim,
// under reference names — as the reference split_test.go compares the
// production kernels against. The split panics (index -1) on a round where
// every enlargement difference is NaN; the production kernel does not.

func (t *Tree) splitQuadraticReference(es []Entry) ([]Entry, []Entry) {
	m := t.cfg.MinEntries
	seedA, seedB := pickQuadraticSeedsReference(es)
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

// pickQuadraticSeedsReference returns the indexes of the pair of entries whose
// combined MBB wastes the most area.
func pickQuadraticSeedsReference(es []Entry) (int, int) {
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

func (t *Tree) chooseMinEnlargementChildReference(n *node, r geom.Rect) int {
	best := 0
	var bestEnl, bestVol float64
	for i := range n.refs {
		ri := n.rect(i, t.cfg.Dims)
		enl := ri.Enlargement(r)
		vol := ri.Volume()
		if i == 0 || enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = i, enl, vol
		}
	}
	return best
}
