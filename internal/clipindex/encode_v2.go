package clipindex

import (
	"math"

	"cbb/internal/geom"
)

// This file implements the compressed v2 clip-table layout used by format-2
// snapshots: clip-point coordinates are quantised onto a 32-bit grid over the
// index universe, halving the dominant cost of a clip point (4 + 4·dims bytes
// against the v1 4 + 8·dims).
//
// The rounding is conservative toward the clip point's own corner. A clip
// point <c, mask> certifies the region toward its corner as dead: in a
// dimension whose mask bit is set the dead half-space is x > c[d] (the Hi
// corner side), otherwise x < c[d]. Rounding c[d] up on set bits and down on
// unset bits therefore shrinks the certified-dead region, so decoded tables
// can only prune less than the exact ones — never a query result change, at
// worst a few extra node visits. Both the query and the insert dominance
// selectors read the same decoded table, so the quantised table stays
// self-consistent under later mutations.
//
// A coordinate the grid cannot bound conservatively (outside the universe, or
// a non-finite value) falls back to raw float64 storage for that whole clip
// point, flagged by the top bit of the serialised mask — geom.MaxDims is 30,
// so corner masks never use it. The flag is set exactly when the grid cannot
// hold the point, and the decoder rejects a raw point the grid could hold:
// each clip point has one encoding, so decoding, re-encoding and decoding
// again gives back the same records.

const (
	clipQMax    = math.MaxUint32
	clipRawFlag = uint32(1) << 31

	clipPointV2HeaderBytes = 4 // serialised mask + flags
)

// clipQDecode reconstructs the coordinate of grid value q on [lo, hi]; the
// endpoints decode exactly.
func clipQDecode(lo, hi float64, q uint32) float64 {
	switch q {
	case 0:
		return lo
	case clipQMax:
		return hi
	}
	return lo + (hi-lo)*(float64(q)/clipQMax)
}

// gridOK reports whether the universe [lo, hi] has a grid: a positive,
// finite width, on which clipQDecode is non-decreasing in q.
func gridOK(lo, hi float64) bool {
	w := hi - lo
	return w > 0 && w <= math.MaxFloat64
}

// clipQDown returns the largest grid value decoding to at most x; ok is false
// when no grid value can (x below the universe, or NaN) or the universe has no
// grid. The search is binary: where the grid is finer than the float64
// spacing of its coordinates, runs of grid values decode alike.
func clipQDown(x, lo, hi float64) (uint32, bool) {
	if !gridOK(lo, hi) || math.IsNaN(x) || clipQDecode(lo, hi, 0) > x {
		return 0, false
	}
	a, b := uint64(0), uint64(clipQMax)+1 // decode(a) <= x; b is past the last candidate
	for b-a > 1 {
		if m := (a + b) / 2; clipQDecode(lo, hi, uint32(m)) <= x {
			a = m
		} else {
			b = m
		}
	}
	return uint32(a), true
}

// clipQUp returns the smallest grid value decoding to at least x; ok is false
// when no grid value can (x above the universe, or NaN) or the universe has no
// grid.
func clipQUp(x, lo, hi float64) (uint32, bool) {
	if !gridOK(lo, hi) || math.IsNaN(x) || clipQDecode(lo, hi, clipQMax) < x {
		return 0, false
	}
	a, b := int64(-1), int64(clipQMax) // decode(b) >= x; a is before the first candidate
	for b-a > 1 {
		if m := (a + b) / 2; clipQDecode(lo, hi, uint32(m)) >= x {
			b = m
		} else {
			a = m
		}
	}
	return uint32(b), true
}

// quantisePoint encodes one clip point's coordinates onto the universe grid,
// rounding toward its corner. ok is false when any dimension cannot be
// bounded conservatively, in which case the caller stores the point raw.
func quantisePoint(mask geom.Corner, coord []float64, universe geom.Rect, out []uint32) bool {
	for d, v := range coord {
		lo, hi := universe.Lo[d], universe.Hi[d]
		var q uint32
		var ok bool
		if mask.Bit(d) {
			q, ok = clipQUp(v, lo, hi)
		} else {
			q, ok = clipQDown(v, lo, hi)
		}
		if !ok {
			return false
		}
		out[d] = q
	}
	return true
}
