package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRectValidation(t *testing.T) {
	if _, err := NewRect(Pt(0, 0), Pt(1, 1)); err != nil {
		t.Fatalf("valid rect rejected: %v", err)
	}
	if _, err := NewRect(Pt(2, 0), Pt(1, 1)); err == nil {
		t.Error("lo > hi should be rejected")
	}
	if _, err := NewRect(Pt(0, 0), Pt(1, 1, 1)); err == nil {
		t.Error("dimension mismatch should be rejected")
	}
	if _, err := NewRect(Pt(math.NaN(), 0), Pt(1, 1)); err == nil {
		t.Error("NaN should be rejected")
	}
	if _, err := NewRect(Pt(), Pt()); err == nil {
		t.Error("empty points should be rejected")
	}
}

func TestRConstructor(t *testing.T) {
	r := R(0, 0, 2, 3)
	if r.Dims() != 2 || r.Side(0) != 2 || r.Side(1) != 3 {
		t.Fatalf("unexpected rect %v", r)
	}
	defer func() {
		if recover() == nil {
			t.Error("odd coordinate count should panic")
		}
	}()
	R(1, 2, 3)
}

func TestRectCorner(t *testing.T) {
	r := R(1, 2, 5, 8)
	cases := []struct {
		b    Corner
		want Point
	}{
		{0b00, Pt(1, 2)},
		{0b01, Pt(5, 2)},
		{0b10, Pt(1, 8)},
		{0b11, Pt(5, 8)},
	}
	for _, c := range cases {
		if got := r.Corner(c.b); !got.Equal(c.want) {
			t.Errorf("Corner(%s) = %v, want %v", c.b.StringDims(2), got, c.want)
		}
	}
}

func TestRectVolumeMarginCenter(t *testing.T) {
	r := R(0, 0, 0, 2, 3, 4)
	if r.Volume() != 24 {
		t.Errorf("Volume = %g, want 24", r.Volume())
	}
	if r.Margin() != 9 {
		t.Errorf("Margin = %g, want 9", r.Margin())
	}
	if !r.Center().Equal(Pt(1, 1.5, 2)) {
		t.Errorf("Center = %v", r.Center())
	}
	if PointRect(Pt(1, 1)).Volume() != 0 {
		t.Error("point rect should have zero volume")
	}
}

func TestRectContains(t *testing.T) {
	r := R(0, 0, 10, 10)
	if !r.ContainsPoint(Pt(0, 0)) || !r.ContainsPoint(Pt(10, 10)) || !r.ContainsPoint(Pt(5, 5)) {
		t.Error("boundary and interior points should be contained")
	}
	if r.ContainsPoint(Pt(10.001, 5)) {
		t.Error("outside point should not be contained")
	}
	if !r.ContainsRect(R(1, 1, 9, 9)) || !r.ContainsRect(r) {
		t.Error("inner rect and self should be contained")
	}
	if r.ContainsRect(R(1, 1, 11, 9)) {
		t.Error("overflowing rect should not be contained")
	}
}

func TestRectIntersects(t *testing.T) {
	a := R(0, 0, 5, 5)
	cases := []struct {
		b    Rect
		want bool
	}{
		{R(1, 1, 2, 2), true},
		{R(5, 5, 6, 6), true}, // touching corner counts
		{R(6, 6, 7, 7), false},
		{R(-1, -1, 0, 6), true}, // touching edge
		{R(2, 6, 3, 7), false},
	}
	for i, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: Intersects(%v) = %v, want %v", i, c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("case %d: Intersects not symmetric", i)
		}
	}
}

func TestRectIntersectionUnion(t *testing.T) {
	a := R(0, 0, 4, 4)
	b := R(2, 2, 6, 6)
	if !a.Intersects(b) || a.Intersects(R(5, 5, 6, 6)) {
		t.Error("Intersects wrong")
	}
	if !a.Union(b).Equal(R(0, 0, 6, 6)) {
		t.Errorf("Union = %v", a.Union(b))
	}
	if ov := a.OverlapVolume(b); ov != 4 {
		t.Errorf("OverlapVolume = %g, want 4", ov)
	}
	if a.OverlapVolume(R(4, 0, 8, 4)) != 0 {
		t.Error("touching rects overlap volume should be 0")
	}
}

func TestRectUnionZero(t *testing.T) {
	var z Rect
	r := R(1, 1, 2, 2)
	if !z.Union(r).Equal(r) || !r.Union(z).Equal(r) {
		t.Error("union with zero rect should return the other rect")
	}
}

func TestRectEnlargement(t *testing.T) {
	a := R(0, 0, 2, 2)
	if e := a.Enlargement(R(1, 1, 3, 3)); math.Abs(e-5) > 1e-12 {
		t.Errorf("Enlargement = %g, want 5", e)
	}
	if e := a.Enlargement(R(0.5, 0.5, 1, 1)); e != 0 {
		t.Errorf("contained rect should not enlarge, got %g", e)
	}
}

func TestRectCornerRect(t *testing.T) {
	r := R(0, 0, 10, 10)
	cr := r.CornerRect(Pt(7, 8), 0b11)
	if !cr.Equal(R(7, 8, 10, 10)) {
		t.Errorf("CornerRect = %v", cr)
	}
	cr = r.CornerRect(Pt(3, 4), 0b00)
	if !cr.Equal(R(0, 0, 3, 4)) {
		t.Errorf("CornerRect = %v", cr)
	}
}

func TestMBROf(t *testing.T) {
	m := MBROf([]Rect{R(0, 0, 1, 1), R(5, -2, 6, 3)})
	if !m.Equal(R(0, -2, 6, 3)) {
		t.Errorf("MBROf = %v", m)
	}
	if !MBROf(nil).IsZero() {
		t.Error("MBROf(nil) should be zero rect")
	}
}

func TestRectExpand(t *testing.T) {
	r := R(0, 0, 4, 4)
	if !r.Expand(1).Equal(R(-1, -1, 5, 5)) {
		t.Error("Expand(1) wrong")
	}
	shrunk := r.Expand(-3)
	if !shrunk.Equal(R(2, 2, 2, 2)) {
		t.Errorf("over-shrinking should collapse to centre, got %v", shrunk)
	}
}

func TestRectMinDistSq(t *testing.T) {
	r := R(0, 0, 2, 2)
	if r.MinDistSq(Pt(1, 1)) != 0 {
		t.Error("inside point should have 0 distance")
	}
	if d := r.MinDistSq(Pt(5, 2)); d != 9 {
		t.Errorf("MinDistSq = %g, want 9", d)
	}
	if d := r.MinDistSq(Pt(5, 6)); d != 25 {
		t.Errorf("MinDistSq = %g, want 25", d)
	}
}

func randomRect(rng *rand.Rand, dims int) Rect {
	lo := make(Point, dims)
	hi := make(Point, dims)
	for i := 0; i < dims; i++ {
		a := rng.Float64()*200 - 100
		b := a + rng.Float64()*50
		lo[i], hi[i] = a, b
	}
	return Rect{Lo: lo, Hi: hi}
}

// Property: union contains both operands; overlap volume is symmetric,
// bounded by min volume, and zero for rectangles that do not intersect.
func TestRectAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		dims := 2 + rng.Intn(2)
		a, b := randomRect(rng, dims), randomRect(rng, dims)
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			t.Fatalf("union %v does not contain operands %v %v", u, a, b)
		}
		ov1, ov2 := a.OverlapVolume(b), b.OverlapVolume(a)
		if !a.Intersects(b) && ov1 != 0 {
			t.Fatalf("disjoint %v and %v overlap by %g", a, b, ov1)
		}
		if math.Abs(ov1-ov2) > 1e-9 {
			t.Fatalf("overlap volume not symmetric: %g vs %g", ov1, ov2)
		}
		if ov1 > a.Volume()+1e-9 || ov1 > b.Volume()+1e-9 {
			t.Fatalf("overlap volume exceeds operand volume")
		}
	}
}

// Property: every corner returned by Corner is a vertex of the rectangle and
// CornerRect(p, b) always contains both p and the corner.
func TestRectCornerProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		dims := 2 + rng.Intn(2)
		r := randomRect(rng, dims)
		Corners(dims, func(b Corner) {
			c := r.Corner(b)
			if !r.ContainsPoint(c) {
				t.Fatalf("corner %v outside rect %v", c, r)
			}
			// random interior point
			p := make(Point, dims)
			for i := 0; i < dims; i++ {
				p[i] = r.Lo[i] + rng.Float64()*(r.Hi[i]-r.Lo[i])
			}
			cr := r.CornerRect(p, b)
			if !cr.ContainsPoint(p) || !cr.ContainsPoint(c) {
				t.Fatalf("CornerRect %v misses p=%v or corner=%v", cr, p, c)
			}
			if !r.ContainsRect(cr) {
				t.Fatalf("CornerRect %v escapes rect %v", cr, r)
			}
		})
	}
}

// Property (quick): volume of union >= max volume of operands.
func TestUnionVolumeProperty(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		norm := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(math.Abs(v), 100)
		}
		a := R(norm(ax), norm(ay), norm(ax)+norm(aw), norm(ay)+norm(ah))
		b := R(norm(bx), norm(by), norm(bx)+norm(bw), norm(by)+norm(bh))
		u := a.Union(b)
		return u.Volume() >= a.Volume()-1e-9 && u.Volume() >= b.Volume()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
