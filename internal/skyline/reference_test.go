package skyline

// The candidate generator as it stood before the flat, floor-first pipeline:
// the oracle TestCandidatesMatchReference and internal/core's
// TestClipMatchesReference compare against. The bodies are verbatim; only
// the names carry a ref prefix. Do not optimise them.

import (
	"math"
	"slices"

	"cbb/internal/geom"
)

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
