// Package geom provides the d-dimensional geometric primitives that underlie
// the clipped-bounding-box (CBB) library: points, axis-aligned rectangles
// (MBBs), corner bitmasks, oriented dominance, and splice points.
//
// The notation follows Šidlauskas et al., "Improving Spatial Data Processing
// by Clipping Minimum Bounding Boxes" (ICDE 2018), Section III: a rectangle R
// is a pair of points <l, u>; a corner of R is addressed by a bitmask b whose
// i-th bit selects u[i] (set) or l[i] (clear); a point p dominates q with
// respect to corner b when p is at least as close to R^b as q in every
// dimension and differs in at least one.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a point in d-dimensional space. The dimensionality is the length
// of the slice; the library works for any d >= 1 and is exercised for d = 2
// and d = 3, like the paper.
type Point []float64

// Pt is a convenience constructor: Pt(1, 2, 3) is the 3-dimensional point
// (1, 2, 3).
func Pt(coords ...float64) Point {
	p := make(Point, len(coords))
	copy(p, coords)
	return p
}

// Dims reports the dimensionality of p.
func (p Point) Dims() int { return len(p) }

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether p and q agree to within eps in every dimension.
func (p Point) ApproxEqual(q Point, eps float64) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if math.Abs(p[i]-q[i]) > eps {
			return false
		}
	}
	return true
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Sqrt(p.DistSq(q))
}

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// Add returns p + q component-wise.
func (p Point) Add(q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// Sub returns p - q component-wise.
func (p Point) Sub(q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] - q[i]
	}
	return r
}

// Scale returns p scaled by s component-wise.
func (p Point) Scale(s float64) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] * s
	}
	return r
}

// Valid reports whether every coordinate of p is a finite number.
func (p Point) Valid() bool {
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return len(p) > 0
}

// String renders p as "(x, y, ...)".
func (p Point) String() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprintf("%g", v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
