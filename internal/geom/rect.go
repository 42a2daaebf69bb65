package geom

import (
	"errors"
	"fmt"
	"math"
)

// Rect is an axis-aligned hyperrectangle <Lo, Hi> (the paper's <l, u>). Lo
// holds the minimum extent and Hi the maximum extent in every dimension. A
// degenerate rectangle with Lo == Hi represents a point object; rectangles
// may be flat in any subset of dimensions (line segments, planes).
type Rect struct {
	Lo, Hi Point
}

// ErrInvalidRect is returned by constructors when the given extents do not
// define a rectangle (mismatched dimensionality, Lo > Hi, or non-finite
// coordinates).
var ErrInvalidRect = errors.New("geom: invalid rectangle")

// NewRect builds a rectangle from its minimum and maximum corner, validating
// the input.
func NewRect(lo, hi Point) (Rect, error) {
	if len(lo) == 0 || len(lo) != len(hi) {
		return Rect{}, fmt.Errorf("%w: dims %d vs %d", ErrInvalidRect, len(lo), len(hi))
	}
	for i := range lo {
		if math.IsNaN(lo[i]) || math.IsNaN(hi[i]) || math.IsInf(lo[i], 0) || math.IsInf(hi[i], 0) {
			return Rect{}, fmt.Errorf("%w: non-finite coordinate in dimension %d", ErrInvalidRect, i)
		}
		if lo[i] > hi[i] {
			return Rect{}, fmt.Errorf("%w: lo[%d]=%g > hi[%d]=%g", ErrInvalidRect, i, lo[i], i, hi[i])
		}
	}
	return Rect{Lo: lo.Clone(), Hi: hi.Clone()}, nil
}

// MustRect is NewRect that panics on invalid input; it is intended for
// literals in tests and examples.
func MustRect(lo, hi Point) Rect {
	r, err := NewRect(lo, hi)
	if err != nil {
		panic(err)
	}
	return r
}

// R is a compact constructor for tests: R(x1,y1, x2,y2) in 2d,
// R(x1,y1,z1, x2,y2,z2) in 3d. It panics on invalid input.
func R(coords ...float64) Rect {
	if len(coords)%2 != 0 || len(coords) == 0 {
		panic("geom: R requires an even, positive number of coordinates")
	}
	d := len(coords) / 2
	return MustRect(Pt(coords[:d]...), Pt(coords[d:]...))
}

// PointRect returns the degenerate rectangle covering exactly the point p.
func PointRect(p Point) Rect {
	return Rect{Lo: p.Clone(), Hi: p.Clone()}
}

// Dims reports the dimensionality of r.
func (r Rect) Dims() int { return len(r.Lo) }

// IsZero reports whether r is the zero value (no extent set at all).
func (r Rect) IsZero() bool { return len(r.Lo) == 0 && len(r.Hi) == 0 }

// Valid reports whether r is a well-formed rectangle.
func (r Rect) Valid() bool {
	if len(r.Lo) == 0 || len(r.Lo) != len(r.Hi) {
		return false
	}
	for i := range r.Lo {
		if math.IsNaN(r.Lo[i]) || math.IsNaN(r.Hi[i]) ||
			math.IsInf(r.Lo[i], 0) || math.IsInf(r.Hi[i], 0) ||
			r.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// Equal reports whether r and s describe the same rectangle.
func (r Rect) Equal(s Rect) bool {
	return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi)
}

// ApproxEqual reports whether r and s agree to within eps on every extent.
func (r Rect) ApproxEqual(s Rect, eps float64) bool {
	return r.Lo.ApproxEqual(s.Lo, eps) && r.Hi.ApproxEqual(s.Hi, eps)
}

// Corner returns the corner R^b of r identified by bitmask b: dimension i is
// Hi[i] when bit i of b is set and Lo[i] otherwise.
func (r Rect) Corner(b Corner) Point {
	p := make(Point, len(r.Lo))
	for i := range r.Lo {
		if b.Bit(i) {
			p[i] = r.Hi[i]
		} else {
			p[i] = r.Lo[i]
		}
	}
	return p
}

// Center returns the centroid of r.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range r.Lo {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Side returns the extent of r along dimension i.
func (r Rect) Side(i int) float64 { return r.Hi[i] - r.Lo[i] }

// Volume returns the d-dimensional volume (area in 2d) of r. Degenerate
// rectangles and the zero Rect have zero volume.
func (r Rect) Volume() float64 {
	if len(r.Lo) == 0 {
		return 0
	}
	v := 1.0
	for i := range r.Lo {
		v *= r.Hi[i] - r.Lo[i]
	}
	return v
}

// Margin returns the sum of the side lengths of r (half the perimeter in 2d,
// a quarter of the total edge length in 3d); this is the "margin" objective
// used by the R*-tree split algorithm.
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// ContainsPoint reports whether p lies inside r (boundaries inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	for i := range r.Lo {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r (boundaries
// inclusive).
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point (touching
// boundaries count as intersecting, as is conventional for MBB filtering).
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if r.Hi[i] < s.Lo[i] || s.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

// IntersectionMeasures returns the volume and margin of r ∩ s without
// materialising the intersection rectangle, and whether the two intersect
// at all (touching counts, with zero volume but positive margin, exactly
// like Intersection).
func (r Rect) IntersectionMeasures(s Rect) (vol, margin float64, ok bool) {
	vol = 1.0
	for i := range r.Lo {
		lo := math.Max(r.Lo[i], s.Lo[i])
		hi := math.Min(r.Hi[i], s.Hi[i])
		if lo > hi {
			return 0, 0, false
		}
		vol *= hi - lo
		margin += hi - lo
	}
	return vol, margin, true
}

// OverlapVolume returns the volume of the intersection of r and s (zero when
// they are disjoint or only touch).
func (r Rect) OverlapVolume(s Rect) float64 {
	v := 1.0
	for i := range r.Lo {
		lo := math.Max(r.Lo[i], s.Lo[i])
		hi := math.Min(r.Hi[i], s.Hi[i])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// Union returns the MBB of r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsZero() {
		return s.Clone()
	}
	if s.IsZero() {
		return r.Clone()
	}
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Lo))
	for i := range r.Lo {
		lo[i] = math.Min(r.Lo[i], s.Lo[i])
		hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// Enlargement returns how much the volume of r grows when extended to also
// cover s: Volume(r ∪ s) - Volume(r). This is the classic Guttman insertion
// criterion. It is on the insertion hot path and therefore computes the
// union's volume without materialising the union rectangle.
func (r Rect) Enlargement(s Rect) float64 {
	if r.IsZero() || s.IsZero() {
		return r.Union(s).Volume() - r.Volume()
	}
	uv, rv := 1.0, 1.0
	for i := range r.Lo {
		lo, hi := r.Lo[i], r.Hi[i]
		rv *= hi - lo
		if s.Lo[i] < lo {
			lo = s.Lo[i]
		}
		if s.Hi[i] > hi {
			hi = s.Hi[i]
		}
		uv *= hi - lo
	}
	return uv - rv
}

// MarginEnlargement returns how much the margin of r grows when extended to
// also cover s; the RR*-tree uses perimeter-based goals for degenerate
// (zero-volume) rectangles. Like Enlargement it avoids materialising the
// union.
func (r Rect) MarginEnlargement(s Rect) float64 {
	if r.IsZero() || s.IsZero() {
		return r.Union(s).Margin() - r.Margin()
	}
	var um, rm float64
	for i := range r.Lo {
		lo, hi := r.Lo[i], r.Hi[i]
		rm += hi - lo
		if s.Lo[i] < lo {
			lo = s.Lo[i]
		}
		if s.Hi[i] > hi {
			hi = s.Hi[i]
		}
		um += hi - lo
	}
	return um - rm
}

// UnionVolume returns Volume(r ∪ s) without materialising the union.
func (r Rect) UnionVolume(s Rect) float64 {
	if r.IsZero() || s.IsZero() {
		return r.Union(s).Volume()
	}
	v := 1.0
	for i := range r.Lo {
		lo, hi := r.Lo[i], r.Hi[i]
		if s.Lo[i] < lo {
			lo = s.Lo[i]
		}
		if s.Hi[i] > hi {
			hi = s.Hi[i]
		}
		v *= hi - lo
	}
	return v
}

// Extend grows r in place to also cover s and returns it. The receiver must
// own its coordinate slices (e.g. a Clone); extending a zero r returns a
// clone of s instead.
func (r Rect) Extend(s Rect) Rect {
	if s.IsZero() {
		return r
	}
	if r.IsZero() {
		return s.Clone()
	}
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] {
			r.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > r.Hi[i] {
			r.Hi[i] = s.Hi[i]
		}
	}
	return r
}

// MinDistSq returns the squared minimum distance from point p to rectangle r
// (zero when p lies inside r). Used by nearest-neighbour style traversals.
func (r Rect) MinDistSq(p Point) float64 {
	var s float64
	for i := range r.Lo {
		switch {
		case p[i] < r.Lo[i]:
			d := r.Lo[i] - p[i]
			s += d * d
		case p[i] > r.Hi[i]:
			d := p[i] - r.Hi[i]
			s += d * d
		}
	}
	return s
}

// CornerRect returns the rectangle spanned between point p and the corner
// R^b of r, i.e. the MBB of {p, R^b}. Per Definition 2 of the paper this is
// exactly the region that the clip point <p, b> would clip away.
func (r Rect) CornerRect(p Point, b Corner) Rect {
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Lo))
	for i := range r.Lo {
		c := r.Lo[i]
		if b.Bit(i) {
			c = r.Hi[i]
		}
		lo[i] = math.Min(p[i], c)
		hi[i] = math.Max(p[i], c)
	}
	return Rect{Lo: lo, Hi: hi}
}

// MBROf computes the minimum bounding box of a set of rectangles. It returns
// the zero Rect for an empty input.
func MBROf(rects []Rect) Rect {
	var out Rect
	for _, r := range rects {
		if r.IsZero() {
			continue
		}
		if out.IsZero() {
			out = r.Clone()
			continue
		}
		out = out.Extend(r)
	}
	return out
}

// Expand returns r grown by delta on every side (shrunk when delta is
// negative; extents collapse to the centre rather than inverting).
func (r Rect) Expand(delta float64) Rect {
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Lo))
	for i := range r.Lo {
		lo[i] = r.Lo[i] - delta
		hi[i] = r.Hi[i] + delta
		if lo[i] > hi[i] {
			mid := (r.Lo[i] + r.Hi[i]) / 2
			lo[i], hi[i] = mid, mid
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// String renders r as "[lo -> hi]".
func (r Rect) String() string {
	return fmt.Sprintf("[%s -> %s]", r.Lo, r.Hi)
}
