package core

import (
	"math"

	"cbb/internal/geom"
	"cbb/internal/skyline"
)

// Record is a node's ordered clip points in the flat form every resident
// copy takes: per clip point dims+1 float64s — the corner mask (its integer
// bits; the slot reads as a denormal) and then the coordinates
// corner-normalised with skyline.Reflect, negated wherever the mask bit is
// set. That makes the clipped corner the minimum corner, so a clip point's
// dead region is "strictly below c′ in every dimension" and Algorithm 2 for
// either selector is the one loop of Dead over a probe laid out by Sel — no
// mask branches, no per-point slices. Negation flips a sign bit and nothing
// else, so At and Points give back exactly the coordinates that went in, ±0
// included. Scores are dropped: they order the clip points at construction
// and nothing reads them afterwards (the serialised table never had them).
//
// A Record is never written after it is built — re-clipping a node builds a
// new one — so snapshots and the writer share records. nil means no clip
// points.
type Record []float64

// NewRecord flattens clip points of the given dimensionality.
func NewRecord(clips []ClipPoint, dims int) Record {
	if len(clips) == 0 {
		return nil
	}
	r := make(Record, 0, len(clips)*(dims+1))
	for _, c := range clips {
		r = append(r, math.Float64frombits(uint64(c.Mask)))
		r = r[:len(r)+dims]
		skyline.Reflect(r[len(r)-dims:], c.Coord, c.Mask)
	}
	return r
}

// Len returns the number of clip points.
func (r Record) Len(dims int) int { return len(r) / (dims + 1) }

// At writes clip point i's coordinates, reflected back, into coord (dims
// long) and returns its corner mask.
func (r Record) At(dims, i int, coord []float64) geom.Corner {
	p := r[i*(dims+1):][:dims+1]
	mask := geom.Corner(math.Float64bits(p[0]))
	skyline.Reflect(coord, p[1:], mask)
	return mask
}

// Points materialises the clip points (Score 0) over one coordinate slab, for
// inspection and tests; nothing on a query path calls it.
func (r Record) Points(dims int) []ClipPoint {
	if len(r) == 0 {
		return nil
	}
	out := make([]ClipPoint, r.Len(dims))
	slab := make([]float64, len(out)*dims)
	for i := range out {
		coord := slab[i*dims : (i+1)*dims : (i+1)*dims]
		out[i] = ClipPoint{Coord: coord, Mask: r.At(dims, i, coord)}
	}
	return out
}

// Sel is a probe rectangle laid out for Record.Dead: slot 2d+b holds the
// coordinate Algorithm 2 compares in dimension d with a clip point whose
// mask bit d is b, reflected like the clip point.
type Sel [2 * geom.MaxDims]float64

// Query lays q out for the query selector (Section IV-C), the probe corner
// farthest from the clipped corner: Dead then is QueryDead, "q's whole
// overlap with the node is certified dead space".
func (s *Sel) Query(q geom.Rect) {
	for d, hi := range q.Hi {
		s[2*d], s[2*d+1] = hi, -q.Lo[d]
	}
}

// Insert lays q out for the insert selector (Section IV-D), the probe corner
// nearest the clipped corner: Dead then is insertDead, "q reaches strictly
// into certified dead space and the clip points are no longer valid".
func (s *Sel) Insert(q geom.Rect) {
	for d, lo := range q.Lo {
		s[2*d], s[2*d+1] = lo, -q.Hi[d]
	}
}

// Dead reports whether some clip point's dead region strictly contains the
// probe corner laid out in sel — the dominance half of Algorithm 2.
// Strictness is the paper's: a probe touching a clip coordinate is never
// dead. The unrolled dimensionalities compute the same function as the
// general loop, four times faster.
func (r Record) Dead(dims int, sel *Sel) bool {
	switch dims {
	case 2:
		for ; len(r) >= 3; r = r[3:] {
			m := math.Float64bits(r[0])
			if below(sel[m&1], r[1])&below(sel[2+m>>1&1], r[2]) != 0 {
				return true
			}
		}
	case 3:
		for ; len(r) >= 4; r = r[4:] {
			m := math.Float64bits(r[0])
			if below(sel[m&1], r[1])&below(sel[2+m>>1&1], r[2])&below(sel[4+m>>2&1], r[3]) != 0 {
				return true
			}
		}
	default:
		for ; len(r) > dims; r = r[dims+1:] {
			m := math.Float64bits(r[0])
			dead := uint(1)
			for d, c := range r[1 : dims+1] {
				dead &= below(sel[2*d+int(m>>uint(d)&1)], c)
			}
			if dead != 0 {
				return true
			}
		}
	}
	return false
}

// below is a < b as 0 or 1, so that a clip point's comparisons combine with &
// into one rarely taken branch instead of one coin toss per dimension.
func below(a, b float64) uint {
	if a < b {
		return 1
	}
	return 0
}

// MinDistSq returns a lower bound on Rect.MinDistSq(p) of every object of
// the record's node, for p laid out in sel by Query as the rectangle [p, p]
// and a box (dims lower, then dims upper extents) that contains the node's
// MBB; without clip points it is the box's own MinDistSq, bit for bit. A clip
// point c′ with p′ < c′ in every dimension has p inside (or facing) its dead
// corner: every object, being a rectangle disjoint from the open corner
// region, lies wholly in a slab x′_d ≥ c′_d of the box for some d, so the
// smallest distance to the dims slabs bounds them all, and so does the
// largest such over the clip points. Each slab distance is summed term by
// term in dimension order exactly as Rect.MinDistSq sums the object's, every
// term no greater (c′_d − p′_d is at most the object's gap in the slab's
// dimension, the box's gap at most the object's in the others), so the bound
// holds in floating point as computed, not merely in the reals — the closed
// form MINDIST² + min_d((c′_d − p′_d)² − gap_d²) overshoots by an ulp. The
// unrolled dimensionalities add in the same order as the general loop (the
// conversions keep a square from being fused into the sum that follows), so
// they return the same bits.
func (r Record) MinDistSq(dims int, sel *Sel, box []float64) float64 {
	switch dims {
	case 2:
		g0, g1 := max(box[0]-sel[0], sel[0]-box[2], 0), max(box[1]-sel[2], sel[2]-box[3], 0)
		q0, q1 := float64(g0*g0), float64(g1*g1)
		bound := q0 + q1
		for ; len(r) >= 3; r = r[3:] {
			m := math.Float64bits(r[0])
			a0, a1 := r[1]-sel[m&1], r[2]-sel[2+m>>1&1]
			if a0 > 0 && a1 > 0 {
				bound = max(bound, min(float64(a0*a0)+q1, q0+float64(a1*a1)))
			}
		}
		return bound
	case 3:
		g0, g1, g2 := max(box[0]-sel[0], sel[0]-box[3], 0), max(box[1]-sel[2], sel[2]-box[4], 0), max(box[2]-sel[4], sel[4]-box[5], 0)
		q0, q1, q2 := float64(g0*g0), float64(g1*g1), float64(g2*g2)
		bound := q0 + q1 + q2
		for ; len(r) >= 4; r = r[4:] {
			m := math.Float64bits(r[0])
			a0, a1, a2 := r[1]-sel[m&1], r[2]-sel[2+m>>1&1], r[3]-sel[4+m>>2&1]
			if a0 > 0 && a1 > 0 && a2 > 0 {
				bound = max(bound, min(float64(a0*a0)+q1+q2, q0+float64(a1*a1)+q2, q0+q1+float64(a2*a2)))
			}
		}
		return bound
	}
	return r.minDistSq(dims, sel, box)
}

// minDistSq is MinDistSq's general loop.
func (r Record) minDistSq(dims int, sel *Sel, box []float64) float64 {
	var gapSq, a [geom.MaxDims]float64
	var bound float64
	for d := 0; d < dims; d++ {
		g := max(box[d]-sel[2*d], sel[2*d]-box[dims+d], 0)
		gapSq[d] = g * g
		bound += gapSq[d]
	}
points:
	for ; len(r) > dims; r = r[dims+1:] {
		m := math.Float64bits(r[0])
		for d, c := range r[1 : dims+1] {
			if a[d] = c - sel[2*d+int(m>>uint(d)&1)]; !(a[d] > 0) {
				continue points
			}
		}
		nearest := math.Inf(1)
		for slab := 0; slab < dims; slab++ {
			var s float64
			for d, term := range gapSq[:dims] {
				if d == slab {
					term = a[d] * a[d]
				}
				s += term
			}
			nearest = min(nearest, s)
		}
		bound = max(bound, nearest)
	}
	return bound
}
