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
// so corner masks never use it.

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

// clipQDown returns the largest grid value decoding to at most x; ok is false
// when no grid value can (x below the universe, or not finite).
func clipQDown(x, lo, hi float64) (uint32, bool) {
	w := hi - lo
	if !(w > 0) || math.IsNaN(x) {
		return 0, false
	}
	f := (x - lo) / w * clipQMax
	var q uint32
	switch {
	case !(f > 0):
		q = 0
	case f >= clipQMax:
		q = clipQMax
	default:
		q = uint32(f)
	}
	for q > 0 && clipQDecode(lo, hi, q) > x {
		q--
	}
	if clipQDecode(lo, hi, q) > x {
		return 0, false
	}
	for q < clipQMax && clipQDecode(lo, hi, q+1) <= x {
		q++
	}
	return q, true
}

// clipQUp returns the smallest grid value decoding to at least x; ok is false
// when no grid value can (x above the universe, or not finite).
func clipQUp(x, lo, hi float64) (uint32, bool) {
	w := hi - lo
	if !(w > 0) || math.IsNaN(x) {
		return 0, false
	}
	f := (x - lo) / w * clipQMax
	var q uint32
	switch {
	case !(f > 0):
		q = 0
	case f >= clipQMax:
		q = clipQMax
	default:
		q = uint32(f) + 1
	}
	for q < clipQMax && clipQDecode(lo, hi, q) < x {
		q++
	}
	if clipQDecode(lo, hi, q) < x {
		return 0, false
	}
	for q > 0 && clipQDecode(lo, hi, q-1) >= x {
		q--
	}
	return q, true
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

// EncodeTableV2 serialises a clip table in the quantised v2 layout. Entries
// are written in ascending node-id order so the encoding is deterministic.
func EncodeTableV2(t Table, dims int, universe geom.Rect) []byte {
	return encodeTable(t, dims, &universe)
}

// DecodeTableV2 parses a clip table previously produced by EncodeTableV2,
// reconstructing coordinates on the universe grid.
func DecodeTableV2(buf []byte, universe geom.Rect) (Table, int, error) {
	return decodeTable(buf, &universe)
}
