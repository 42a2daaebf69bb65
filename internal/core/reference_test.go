package core

// Algorithm 1 as it stood before the floor-first pipeline — Clip, scoreCorner
// and the skyline/stairline generator under them — kept as the oracle of
// TestClipMatchesReference and FuzzClipMatchesReference. The bodies are
// verbatim; only the names carry a ref prefix (the generator is the same copy
// internal/skyline's tests keep). Do not optimise them.

import (
	"math"
	"slices"

	"cbb/internal/geom"
)

// Clip computes the clip points of the MBB mbb given the rectangles of its
// children (child MBBs for directory nodes, object MBBs for leaves). It is
// Algorithm 1 of the paper:
//
//	for each corner b:
//	    P ← oriented skyline of the children's b-corners
//	    if stairline: P ← P ∪ valid splices of pairs of P
//	    score all candidates (additive approximation of Figure 5)
//	    keep candidates with score > τ·Vol(mbb)
//	return the K highest-scoring candidates overall, ordered by score
//
// A nil or empty children slice, a zero-volume MBB, or K == 0 yields no clip
// points. The children need not be clipped themselves; only their MBBs
// participate.
func refClip(mbb geom.Rect, children []geom.Rect, p Params) []ClipPoint {
	if len(children) == 0 || p.K == 0 || !mbb.Valid() {
		return nil
	}
	dims := mbb.Dims()
	nodeVol := mbb.Volume()
	if nodeVol <= 0 {
		// A degenerate (zero-volume) MBB has no dead space to clip.
		return nil
	}
	minScore := p.Tau * nodeVol

	all := make([]ClipPoint, 0, 2*p.K)
	corners := make([]geom.Point, len(children))
	geom.Corners(dims, func(b geom.Corner) {
		// Line 3: nearest corners of every child w.r.t. b, carved out of one
		// flat slab instead of one allocation per corner point. Candidates
		// returned by the skyline stage alias this slab, so each MBB corner
		// gets a fresh slab (kept alive via `all` until the final copy below
		// clones the winners out of it).
		slab := make([]float64, len(children)*dims)
		for i, ch := range children {
			c := slab[i*dims : (i+1)*dims : (i+1)*dims]
			for d := 0; d < dims; d++ {
				if b.Bit(d) {
					c[d] = ch.Hi[d]
				} else {
					c[d] = ch.Lo[d]
				}
			}
			corners[i] = geom.Point(c)
		}
		var candidates []geom.Point
		switch p.Method {
		case MethodStairline:
			candidates = refStairline(corners, b)
		default:
			candidates = refOriented(corners, b)
		}
		scored := refScoreCorner(mbb, b, candidates)
		for _, cp := range scored {
			if cp.Score > minScore {
				all = append(all, cp)
			}
		}
	})

	// Line 12: keep the K highest-scoring clip points overall.
	slices.SortStableFunc(all, func(a, b ClipPoint) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		default:
			return 0
		}
	})
	if len(all) > p.K {
		all = all[:p.K]
	}
	// Clone into a right-sized slice: candidate coordinates alias the per-
	// corner scratch slabs, which must not be retained (or shared) by
	// long-lived clip tables.
	out := make([]ClipPoint, len(all))
	for i, cp := range all {
		out[i] = ClipPoint{Coord: cp.Coord.Clone(), Mask: cp.Mask, Score: cp.Score}
	}
	return out
}

// scoreCorner assigns the additive-approximation scores of Figure 5 to the
// candidate clip points of a single corner: the candidate clipping the most
// volume keeps its full volume as score; every other candidate is charged
// its overlap with that best candidate. Candidates are returned unsorted,
// with Coord aliasing the candidate points (the caller clones the winners);
// the candidate regions live only for the duration of the call and share one
// flat backing buffer.
func refScoreCorner(mbb geom.Rect, b geom.Corner, candidates []geom.Point) []ClipPoint {
	if len(candidates) == 0 {
		return nil
	}
	dims := mbb.Dims()
	buf := make([]float64, 2*dims*len(candidates))
	regions := make([]geom.Rect, len(candidates))
	out := make([]ClipPoint, 0, len(candidates))
	best := -1
	bestVol := -1.0
	for i, c := range candidates {
		lo := buf[(2*i)*dims : (2*i+1)*dims : (2*i+1)*dims]
		hi := buf[(2*i+1)*dims : (2*i+2)*dims : (2*i+2)*dims]
		for d := 0; d < dims; d++ {
			cc := mbb.Lo[d]
			if b.Bit(d) {
				cc = mbb.Hi[d]
			}
			lo[d] = math.Min(c[d], cc)
			hi[d] = math.Max(c[d], cc)
		}
		regions[i] = geom.Rect{Lo: lo, Hi: hi}
		v := regions[i].Volume()
		out = append(out, ClipPoint{Coord: c, Mask: b, Score: v})
		if v > bestVol {
			bestVol, best = v, i
		}
	}
	// Assumption (2)/(3): the largest clip is assumed chosen; others are
	// charged for the area they share with it so the sum approximates the
	// union without inclusion–exclusion.
	for i := range out {
		if i == best {
			continue
		}
		out[i].Score -= regions[i].OverlapVolume(regions[best])
	}
	return out
}

// Oriented returns the skyline of pts with respect to corner orientation b:
// the subset of points not dominated by any other point (Definition 5).
// Duplicate points are collapsed to a single representative. The result is
// ordered by descending distance from the corner is NOT guaranteed; callers
// that need an order should sort the result themselves.
//
// The input slice is not modified. Returned points may alias the coordinate
// storage of the input points (this sits on the clip-construction hot path,
// where the caller owns per-corner scratch buffers); callers that retain the
// result beyond the lifetime of pts must clone the points they keep.
func refOriented(pts []geom.Point, b geom.Corner) []geom.Point {
	switch len(pts) {
	case 0:
		return nil
	case 1:
		return []geom.Point{pts[0]}
	}
	dims := pts[0].Dims()
	if dims == 2 {
		return refOriented2D(pts, b)
	}
	return refOrientedGeneric(pts, b)
}

// oriented2D computes the skyline with a sort-and-scan pass: sort by
// closeness to the corner in dimension 0 (ties broken by dimension 1), then
// keep points whose dimension-1 coordinate improves on the best seen so far.
// The index slice lives on the stack for realistic fan-outs and the sort is
// a direct slices.SortFunc (no reflection-based swapper).
func refOriented2D(pts []geom.Point, b geom.Corner) []geom.Point {
	var ibuf [64]int32
	idx := ibuf[:0]
	if len(pts) > len(ibuf) {
		idx = make([]int32, 0, len(pts))
	}
	for i := range pts {
		idx = append(idx, int32(i))
	}
	slices.SortFunc(idx, func(x, y int32) int {
		p, q := pts[x], pts[y]
		if p[0] != q[0] {
			if geom.CloserToCorner(p, q, b, 0) {
				return -1
			}
			return 1
		}
		if p[1] != q[1] {
			if geom.CloserToCorner(p, q, b, 1) {
				return -1
			}
			return 1
		}
		return 0
	})
	out := make([]geom.Point, 0, len(pts))
	haveBest := false
	var best float64
	better := func(v float64) bool {
		if !haveBest {
			return true
		}
		if b.Bit(1) {
			return v > best
		}
		return v < best
	}
	var prev geom.Point
	for _, i := range idx {
		p := pts[i]
		if prev != nil && p.Equal(prev) {
			continue
		}
		prev = p
		if better(p[1]) {
			out = append(out, p)
			best = p[1]
			haveBest = true
		}
	}
	return out
}

// orientedGeneric computes the skyline by pairwise dominance checks. With
// node fan-outs of a few dozen to a few hundred entries this is entirely
// adequate and is also what the paper assumes ("small input sets (< M)").
func refOrientedGeneric(pts []geom.Point, b geom.Corner) []geom.Point {
	out := make([]geom.Point, 0, len(pts))
	for i, p := range pts {
		dominated := false
		duplicate := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if q.Equal(p) {
				// Keep only the first occurrence of duplicates.
				if j < i {
					duplicate = true
					break
				}
				continue
			}
			if geom.Dominates(q, p, b) {
				dominated = true
				break
			}
		}
		if !dominated && !duplicate {
			out = append(out, p)
		}
	}
	return out
}

// Stairline returns the union of the oriented skyline of pts w.r.t. b and
// all valid splice points generated from pairs of skyline points
// (Definition 7). A splice point s = splice(p, q, ~b) is valid when no
// skyline point dominates it w.r.t. b — i.e. when clipping with s would not
// clip away any child. Skyline points that are themselves dominated by a
// generated splice point are redundant for clipping purposes but are still
// returned; the CBB scoring stage in internal/core decides which candidates
// to keep.
//
// The cost is cubic in the skyline size (pairs × validation scan), matching
// the paper's "unfortunately-cubic algorithm that is still practically
// reasonable given the small input sets". Splices are computed into a stack
// scratch point and only the accepted ones are materialised, so rejected
// pairs cost no allocation. Like Oriented, returned skyline points may alias
// the input points; splice points are freshly allocated.
func refStairline(pts []geom.Point, b geom.Corner) []geom.Point {
	sky := refOriented(pts, b)
	if len(sky) < 2 {
		return sky
	}
	dims := sky[0].Dims()
	inv := b.Opposite(dims)
	out := make([]geom.Point, len(sky), len(sky)+8)
	copy(out, sky)
	var sbuf [8]float64
	s := geom.Point(sbuf[:])
	if dims > len(sbuf) {
		s = make(geom.Point, dims)
	} else {
		s = s[:dims]
	}
	for i := 0; i < len(sky); i++ {
		for j := i + 1; j < len(sky); j++ {
			geom.SpliceInto(s, sky[i], sky[j], inv)
			if refContainsBits(out, s) {
				continue
			}
			if refSpliceValid(s, sky, b) {
				out = append(out, s.Clone())
			}
		}
	}
	return out
}

// spliceValid reports whether the splice point s is a valid clip point
// candidate w.r.t. corner b given the skyline points of the children
// (Line 6 of Algorithm 1): s is valid iff no child corner lies strictly
// inside the region s would clip away. A child's nearest corner q cuts into
// the open interior of that region exactly when q is strictly closer to the
// MBB corner than s in every dimension, so boundary contact (as with the
// spliced point c in the paper's Figure 2, which touches o1 and o4) does not
// invalidate a splice.
func refSpliceValid(s geom.Point, sky []geom.Point, b geom.Corner) bool {
	for _, q := range sky {
		if geom.StrictlyDominates(q, s, b) {
			return false
		}
	}
	return true
}

// containsBits reports whether set holds a point with exactly the bit
// patterns of p. It replaces the string-keyed map the dedupe step used to
// build per corner, with identical semantics (±0 are distinct, NaNs are
// equal iff their payloads match); candidate sets are at most the node
// fan-out plus a handful of splices, so a linear scan beats hashing.
func refContainsBits(set []geom.Point, p geom.Point) bool {
	for _, q := range set {
		if refBitsEqual(q, p) {
			return true
		}
	}
	return false
}

func refBitsEqual(p, q geom.Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if math.Float64bits(p[i]) != math.Float64bits(q[i]) {
			return false
		}
	}
	return true
}
