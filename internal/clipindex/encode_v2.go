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
//
// The grid value of a coordinate is defined by the decoder: the largest value
// decoding to at most it (rounding down), the smallest decoding to at least
// it (rounding up). A one-multiply estimate answers that for nearly every
// coordinate, certified by a slack bound on its rounding error (clipGrid);
// the rest — a coordinate within slack of a cell edge, a grid finer than its
// coordinates' float64 spacing — take a binary search over the decoder, so
// the bytes are the definition's whichever path answers.

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

// clipGrid is one dimension of the universe's 32-bit grid: the [lo, hi] range
// clip coordinates are quantised against, the scale s = clipQMax/(hi−lo) that
// estimates a coordinate's cell with one multiplication, and the slack that
// certifies an estimate — rtree's 16-bit node grid re-derived for 32-bit
// cells. Its one division is paid once per dimension and table, not once per
// coordinate.
//
// With u = 2⁻⁵³, r = |lo|+|hi| and w = hi−lo, the estimate f = (x−lo)·s
// rounds four times (the difference, the width, the scale, the product), so
// it is within 4u·clipQMax(1+O(u)) cells of the real (x−lo)·clipQMax/w over
// the grid; clipQDecode rounds four times too, on values no larger than w
// and r, so it is within u(3w + r)(1+O(u)), that is clipQMax·u·(3 + r/w)
// cells, of the real lo + w·q/clipQMax. Each is below clipQMax·u·(8 + 4r/w)
// cells, and slack, 2⁻⁴⁰·(r + w)·s = clipQMax·2⁻⁴⁰·(1 + r/w) cells, is at
// least 1024 times that (2¹³/8). So when f lies inside the grid and its
// fraction is more than slack from both cell edges, ⌊f⌋ is x's cell:
// clipQDecode(⌊f⌋) < x < clipQDecode(⌊f⌋+1), the real values being more than
// slack cells apart from x and the computed ones within a 512th of that.
//
// Every other case falls back to the binary search over clipQDecode, which
// needs no bound: a fraction within slack of a cell edge; a grid finer than
// the float64 spacing of its coordinates (r/w above 2²¹, where runs of grid
// values decode alike — slack passes half a cell from r/w ≈ 2⁷ on, so such a
// universe certifies nothing); a scale that overflows (a subnormal width:
// slack is infinite); and a universe with no grid (gridOK: s and slack are
// NaN, which certify nothing).
type clipGrid struct{ lo, hi, s, slack float64 }

func newClipGrid(lo, hi float64) clipGrid {
	g := clipGrid{lo: lo, hi: hi, s: math.NaN(), slack: math.NaN()}
	if gridOK(lo, hi) {
		g.s = clipQMax / (hi - lo)
		g.slack = 0x1p-40 * (math.Abs(lo) + math.Abs(hi) + (hi - lo)) * g.s
	}
	return g
}

// clipGrids is the grid of each dimension of the universe.
func clipGrids(universe geom.Rect) []clipGrid {
	gs := make([]clipGrid, universe.Dims())
	for d := range gs {
		gs[d] = newClipGrid(universe.Lo[d], universe.Hi[d])
	}
	return gs
}

// certain returns ⌊f⌋ for x's estimate f, and whether f certifies it (see
// clipGrid).
func (g clipGrid) certain(x float64) (uint32, bool) {
	f := (x - g.lo) * g.s
	if !(f > g.slack && f < clipQMax-g.slack) {
		return 0, false
	}
	q := uint32(f)
	fr := f - float64(q)
	return q, fr > g.slack && fr < 1-g.slack
}

// clipQDown returns the largest grid value decoding to at most x; ok is false
// when no grid value can (x below the universe, or NaN) or the universe has no
// grid. A certified estimate answers with one multiplication (clipGrid);
// otherwise the search is binary: where the grid is finer than the float64
// spacing of its coordinates, runs of grid values decode alike.
func (g clipGrid) clipQDown(x float64) (uint32, bool) {
	if q, ok := g.certain(x); ok {
		return q, true
	}
	if !gridOK(g.lo, g.hi) || math.IsNaN(x) || clipQDecode(g.lo, g.hi, 0) > x {
		return 0, false
	}
	a, b := uint64(0), uint64(clipQMax)+1 // decode(a) <= x; b is past the last candidate
	for b-a > 1 {
		if m := (a + b) / 2; clipQDecode(g.lo, g.hi, uint32(m)) <= x {
			a = m
		} else {
			b = m
		}
	}
	return uint32(a), true
}

// clipQUp returns the smallest grid value decoding to at least x; ok is false
// when no grid value can (x above the universe, or NaN) or the universe has no
// grid. It is certified like clipQDown, the cell's upper edge ⌊f⌋+1, and falls
// back to the same binary search.
func (g clipGrid) clipQUp(x float64) (uint32, bool) {
	if q, ok := g.certain(x); ok {
		return q + 1, true
	}
	if !gridOK(g.lo, g.hi) || math.IsNaN(x) || clipQDecode(g.lo, g.hi, clipQMax) < x {
		return 0, false
	}
	a, b := int64(-1), int64(clipQMax) // decode(b) >= x; a is before the first candidate
	for b-a > 1 {
		if m := (a + b) / 2; clipQDecode(g.lo, g.hi, uint32(m)) >= x {
			b = m
		} else {
			a = m
		}
	}
	return uint32(b), true
}

// quantisePoint encodes one clip point's coordinates onto the universe's
// grids, rounding toward its corner. ok is false when any dimension cannot be
// bounded conservatively, in which case the caller stores the point raw.
func quantisePoint(mask geom.Corner, coord []float64, grids []clipGrid, out []uint32) bool {
	for d, v := range coord {
		var q uint32
		var ok bool
		if mask.Bit(d) {
			q, ok = grids[d].clipQUp(v)
		} else {
			q, ok = grids[d].clipQDown(v)
		}
		if !ok {
			return false
		}
		out[d] = q
	}
	return true
}
