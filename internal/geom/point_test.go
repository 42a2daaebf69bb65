package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPtAndDims(t *testing.T) {
	p := Pt(1, 2, 3)
	if p.Dims() != 3 {
		t.Fatalf("Dims() = %d, want 3", p.Dims())
	}
	if p[0] != 1 || p[1] != 2 || p[2] != 3 {
		t.Fatalf("unexpected coords: %v", p)
	}
}

func TestPointCloneIndependence(t *testing.T) {
	p := Pt(1, 2)
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatalf("Clone is not independent: %v", p)
	}
}

func TestPointEqual(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{Pt(1, 2), Pt(1, 2), true},
		{Pt(1, 2), Pt(1, 3), false},
		{Pt(1, 2), Pt(1, 2, 3), false},
		{Pt(), Pt(), true},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: Equal(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestPointApproxEqual(t *testing.T) {
	if !Pt(1, 2).ApproxEqual(Pt(1.0000001, 2), 1e-5) {
		t.Error("expected approx equal within eps")
	}
	if Pt(1, 2).ApproxEqual(Pt(1.1, 2), 1e-5) {
		t.Error("expected not approx equal outside eps")
	}
}

func TestPointDist(t *testing.T) {
	d := Pt(0, 0).Dist(Pt(3, 4))
	if math.Abs(d-5) > 1e-12 {
		t.Fatalf("Dist = %g, want 5", d)
	}
	if Pt(1, 1).DistSq(Pt(1, 1)) != 0 {
		t.Fatal("DistSq of identical points should be 0")
	}
}

func TestPointArithmetic(t *testing.T) {
	a, b := Pt(1, 2), Pt(3, 5)
	if !a.Add(b).Equal(Pt(4, 7)) {
		t.Error("Add wrong")
	}
	if !b.Sub(a).Equal(Pt(2, 3)) {
		t.Error("Sub wrong")
	}
	if !a.Scale(2).Equal(Pt(2, 4)) {
		t.Error("Scale wrong")
	}
}

func TestPointValid(t *testing.T) {
	if !Pt(1, 2).Valid() {
		t.Error("finite point should be valid")
	}
	if Pt(math.NaN(), 0).Valid() {
		t.Error("NaN point should be invalid")
	}
	if Pt(math.Inf(1), 0).Valid() {
		t.Error("Inf point should be invalid")
	}
	if (Point{}).Valid() {
		t.Error("empty point should be invalid")
	}
}

func TestPointString(t *testing.T) {
	if s := Pt(1, 2.5).String(); s != "(1, 2.5)" {
		t.Fatalf("String = %q", s)
	}
}

// Property: distance is symmetric and satisfies the triangle inequality for
// random 3d points.
func TestPointDistProperties(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Pt(clamp(ax), clamp(ay), clamp(az))
		b := Pt(clamp(bx), clamp(by), clamp(bz))
		c := Pt(clamp(cx), clamp(cy), clamp(cz))
		if math.Abs(a.Dist(b)-b.Dist(a)) > 1e-9 {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
