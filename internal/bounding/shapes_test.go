package bounding

import (
	"math"
	"math/rand"
	"testing"

	"cbb/internal/core"
	"cbb/internal/geom"
)

// figure3Leaves reproduces the left leaf node of the paper's Figure 3a
// running example: five objects with plenty of corner dead space.
func exampleObjects() []geom.Rect {
	return []geom.Rect{
		geom.R(0, 4, 3, 10),
		geom.R(1, 0, 2, 4),
		geom.R(4, 0, 5, 3),
		geom.R(6, 0, 9, 4),
		geom.R(8, 2, 10, 3),
	}
}

func TestMBBShape(t *testing.T) {
	objs := exampleObjects()
	mbb := NewMBB(objs)
	if mbb.Name() != "MBB" || mbb.PointCount() != 2 {
		t.Error("MBB metadata wrong")
	}
	if mbb.Area() != 100 {
		t.Errorf("MBB area = %g, want 100", mbb.Area())
	}
	if !mbb.Contains(geom.Pt(5, 5)) || mbb.Contains(geom.Pt(11, 5)) {
		t.Error("MBB containment wrong")
	}
}

func TestMBCContainsAllCorners(t *testing.T) {
	objs := exampleObjects()
	mbc := NewMBC(objs)
	if mbc.Name() != "MBC" || mbc.PointCount() != 2 {
		t.Error("MBC metadata wrong")
	}
	for _, o := range objs {
		geom.Corners(2, func(b geom.Corner) {
			if !mbc.Contains(o.Corner(b)) {
				t.Errorf("MBC does not contain corner %v of %v", o.Corner(b), o)
			}
		})
	}
	// Exact MBC of the 10x10 point cloud has radius >= half diagonal of the
	// farthest pair and area >= MBB area * pi/4 is not generally true, but
	// it must be at least the MBB's inscribed circle and at most the circle
	// around the MBB diagonal.
	if mbc.Radius < 5 || mbc.Radius > math.Sqrt(200)/2+1e-9 {
		t.Errorf("MBC radius %g outside plausible range", mbc.Radius)
	}
	if mbc.Area() <= NewMBB(objs).Area() {
		t.Errorf("MBC area %g should exceed the MBB's %g", mbc.Area(), NewMBB(objs).Area())
	}
}

func TestMBCDegenerate(t *testing.T) {
	if c := NewMBC(nil); c.Radius != 0 {
		t.Error("empty MBC should have zero radius")
	}
	single := NewMBC([]geom.Rect{geom.PointRect(geom.Pt(3, 4))})
	if single.Radius != 0 || !single.Contains(geom.Pt(3, 4)) {
		t.Error("single-point MBC wrong")
	}
	// Collinear points must still be enclosed.
	col := NewMBC([]geom.Rect{
		geom.PointRect(geom.Pt(0, 0)), geom.PointRect(geom.Pt(5, 0)), geom.PointRect(geom.Pt(10, 0)),
	})
	for _, x := range []float64{0, 5, 10} {
		if !col.Contains(geom.Pt(x, 0)) {
			t.Errorf("collinear MBC misses (%g,0)", x)
		}
	}
}

func TestMBC3D(t *testing.T) {
	objs := []geom.Rect{geom.R(0, 0, 0, 2, 2, 2), geom.R(8, 8, 8, 10, 10, 10)}
	mbc := NewMBC(objs)
	for _, o := range objs {
		geom.Corners(3, func(b geom.Corner) {
			if !mbc.Contains(o.Corner(b)) {
				t.Errorf("3d ball misses corner %v", o.Corner(b))
			}
		})
	}
	if mbc.Area() <= 0 {
		t.Error("3d ball volume should be positive")
	}
}

func TestConvexHull(t *testing.T) {
	objs := exampleObjects()
	ch := NewConvexHull(objs)
	if ch.Name() != "CH" {
		t.Error("name wrong")
	}
	if len(ch.Vertices) < 4 {
		t.Fatalf("hull has too few vertices: %d", len(ch.Vertices))
	}
	// The hull must contain every object corner and be no larger than the
	// MBB.
	for _, o := range objs {
		geom.Corners(2, func(b geom.Corner) {
			if !ch.Contains(o.Corner(b)) {
				t.Errorf("hull misses corner %v", o.Corner(b))
			}
		})
	}
	if ch.Area() > NewMBB(objs).Area()+1e-9 {
		t.Errorf("hull area %g exceeds MBB area", ch.Area())
	}
	if ch.Area() <= 0 {
		t.Error("hull area should be positive")
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := NewConvexHull(nil); len(h.Vertices) != 0 {
		t.Error("empty hull should have no vertices")
	}
	// A single point or collinear points produce degenerate hulls with zero
	// area and no containment claims.
	line := NewConvexHull([]geom.Rect{
		geom.PointRect(geom.Pt(0, 0)), geom.PointRect(geom.Pt(1, 1)), geom.PointRect(geom.Pt(2, 2)),
	})
	if line.Area() != 0 {
		t.Error("collinear hull should have zero area")
	}
}

func TestRotatedMBB(t *testing.T) {
	// A diagonal strip of points: the rotated MBB should be much smaller
	// than the axis-aligned MBB.
	var objs []geom.Rect
	for i := 0; i < 20; i++ {
		f := float64(i)
		objs = append(objs, geom.R(f, f, f+1, f+1))
	}
	rmbb := NewRotatedMBB(objs)
	mbb := NewMBB(objs)
	if rmbb.Name() != "RMBB" || len(rmbb.Vertices) != 4 {
		t.Fatalf("RMBB metadata wrong: %d vertices", len(rmbb.Vertices))
	}
	if rmbb.Area() >= mbb.Area() {
		t.Errorf("rotated MBB (%g) should beat axis-aligned MBB (%g) on diagonal data", rmbb.Area(), mbb.Area())
	}
	for _, o := range objs {
		geom.Corners(2, func(b geom.Corner) {
			if !rmbb.Contains(o.Corner(b)) {
				t.Errorf("RMBB misses corner %v", o.Corner(b))
			}
		})
	}
}

func TestKCornerPolygon(t *testing.T) {
	objs := exampleObjects()
	ch := NewConvexHull(objs)
	for _, k := range []int{4, 5} {
		poly := NewKCornerPolygon(objs, k)
		if poly.PointCount() > k {
			t.Errorf("%d-C polygon has %d corners", k, poly.PointCount())
		}
		if poly.Area() < ch.Area()-1e-9 {
			t.Errorf("%d-C area %g smaller than hull area %g (cannot bound)", k, poly.Area(), ch.Area())
		}
		// Must still contain every object corner.
		for _, o := range objs {
			geom.Corners(2, func(b geom.Corner) {
				if !poly.Contains(o.Corner(b)) {
					t.Errorf("%d-C polygon misses corner %v", k, o.Corner(b))
				}
			})
		}
	}
	// 4-C can never beat 5-C (more corners = at least as tight).
	p4 := NewKCornerPolygon(objs, 4)
	p5 := NewKCornerPolygon(objs, 5)
	if p5.Area() > p4.Area()+1e-9 {
		t.Errorf("5-C area %g worse than 4-C area %g", p5.Area(), p4.Area())
	}
}

func TestKCornerSmallHull(t *testing.T) {
	// A triangle's hull has 3 corners; asking for 4 returns it unchanged.
	objs := []geom.Rect{
		geom.PointRect(geom.Pt(0, 0)), geom.PointRect(geom.Pt(10, 0)), geom.PointRect(geom.Pt(5, 8)),
	}
	poly := NewKCornerPolygon(objs, 4)
	if len(poly.Vertices) != 3 {
		t.Errorf("expected the hull itself, got %d vertices", len(poly.Vertices))
	}
}

func TestCBBShape(t *testing.T) {
	objs := exampleObjects()
	sky := NewCBBShape(objs, core.Params{K: 8, Tau: 0, Method: core.MethodSkyline})
	sta := NewCBBShape(objs, core.Params{K: 8, Tau: 0, Method: core.MethodStairline})
	if sky.Name() != "CBBSKY" || sta.Name() != "CBBSTA" {
		t.Error("CBB shape names wrong")
	}
	mbbArea := NewMBB(objs).Area()
	if sky.Area() > mbbArea || sta.Area() >= mbbArea {
		t.Error("clipping can never increase area, and stairline clipping of the example must shrink it")
	}
	if sta.Area() > sky.Area()+1e-9 {
		t.Errorf("CSTA area %g should be <= CSKY area %g", sta.Area(), sky.Area())
	}
	if sky.PointCount() < 2 || sta.PointCount() < sky.PointCount() {
		t.Errorf("point counts implausible: sky=%d sta=%d", sky.PointCount(), sta.PointCount())
	}
	// Object interiors are always contained.
	for _, o := range objs {
		if !sta.Contains(o.Center()) {
			t.Errorf("CBB shape must contain object centre %v", o.Center())
		}
	}
	// Deep corner dead space is excluded by the stairline CBB.
	if sta.Contains(geom.Pt(9.5, 9.5)) {
		t.Error("far corner dead space should be clipped away")
	}
}

func TestDeadSpaceFractionOrdering(t *testing.T) {
	// Figure 8's qualitative ordering on the running example: MBC has the
	// most dead space, MBB is next, the convex hull improves on the MBB, and
	// the stairline CBB beats the skyline CBB.
	objs := exampleObjects()
	shapes := map[string]Shape{
		"MBC": NewMBC(objs),
		"MBB": NewMBB(objs),
		"CH":  NewConvexHull(objs),
		"SKY": NewCBBShape(objs, core.Params{K: 8, Tau: 0, Method: core.MethodSkyline}),
		"STA": NewCBBShape(objs, core.Params{K: 8, Tau: 0, Method: core.MethodStairline}),
	}
	dead := make(map[string]float64)
	for name, s := range shapes {
		dead[name] = DeadSpaceFraction(s, objs, 20000, 1)
		if dead[name] < 0 || dead[name] > 1 {
			t.Errorf("%s dead space %g outside [0, 1]", name, dead[name])
		}
	}
	if dead["MBC"] < dead["MBB"] {
		t.Errorf("MBC dead space (%.2f) should exceed MBB (%.2f)", dead["MBC"], dead["MBB"])
	}
	if dead["CH"] > dead["MBB"]+0.02 {
		t.Errorf("CH dead space (%.2f) should not exceed MBB (%.2f)", dead["CH"], dead["MBB"])
	}
	if dead["STA"] > dead["SKY"]+0.02 {
		t.Errorf("CSTA dead space (%.2f) should not exceed CSKY (%.2f)", dead["STA"], dead["SKY"])
	}
	if dead["STA"] > dead["MBB"] {
		t.Errorf("CSTA dead space (%.2f) should be below MBB (%.2f)", dead["STA"], dead["MBB"])
	}
}

func TestDeadSpaceEdgeCases(t *testing.T) {
	objs := exampleObjects()
	if DeadSpaceFraction(nil, objs, 100, 1) != 0 {
		t.Error("nil shape should report 0")
	}
	if DeadSpaceFraction(NewMBB(objs), nil, 100, 1) != 0 {
		t.Error("no objects should report 0")
	}
	if DeadSpaceFraction(NewMBB(objs), objs, 0, 1) != 0 {
		t.Error("no samples should report 0")
	}
	// A single object exactly filling its MBB has no dead space.
	solid := []geom.Rect{geom.R(0, 0, 10, 10)}
	if d := DeadSpaceFraction(NewMBB(solid), solid, 2000, 1); d != 0 {
		t.Errorf("solid object dead space = %g, want 0", d)
	}
}

// Property: on random object sets, every bounding shape contains every
// object corner (the defining property of a conservative approximation).
func TestAllShapesAreConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 30; iter++ {
		var objs []geom.Rect
		n := 3 + rng.Intn(20)
		for i := 0; i < n; i++ {
			x, y := rng.Float64()*100, rng.Float64()*100
			objs = append(objs, geom.R(x, y, x+rng.Float64()*20, y+rng.Float64()*20))
		}
		shapes := []Shape{
			NewMBB(objs), NewMBC(objs), NewConvexHull(objs), NewRotatedMBB(objs),
			NewKCornerPolygon(objs, 4), NewKCornerPolygon(objs, 5),
			NewCBBShape(objs, core.Params{K: 8, Tau: 0, Method: core.MethodSkyline}),
			NewCBBShape(objs, core.Params{K: 8, Tau: 0, Method: core.MethodStairline}),
		}
		for _, s := range shapes {
			for _, o := range objs {
				// Object centres must always be inside (corners may touch
				// polygon boundaries within floating-point noise, so centres
				// are the robust check; CBBs additionally guarantee corners).
				if !s.Contains(o.Center()) {
					t.Fatalf("%s does not contain centre of %v", s.Name(), o)
				}
			}
		}
	}
}

func BenchmarkWelzlMBC(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var objs []geom.Rect
	for i := 0; i < 100; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		objs = append(objs, geom.R(x, y, x+10, y+10))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewMBC(objs)
	}
}

func BenchmarkDeadSpaceEstimation(b *testing.B) {
	objs := exampleObjects()
	s := NewCBBShape(objs, core.DefaultParams(2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DeadSpaceFraction(s, objs, 1024, int64(i))
	}
}
