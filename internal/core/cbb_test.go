package core

import (
	"math"
	"math/rand"
	"testing"

	"cbb/internal/geom"
)

// figure2Objects reconstructs the five-object running example of the paper's
// Figure 2 inside the MBB [0,0]-[10,10].
func figure2Objects() []geom.Rect {
	return []geom.Rect{
		geom.R(0, 4, 3, 10), // o1: tall box at the left
		geom.R(1, 0, 2, 4),  // o2: thin box at the bottom-left
		geom.R(4, 0, 5, 3),  // o3: small box at the bottom
		geom.R(6, 0, 9, 4),  // o4: wide box at the bottom-right
		geom.R(8, 2, 10, 3), // o5: small box at the right edge
	}
}

func TestDefaultParams(t *testing.T) {
	p2 := DefaultParams(2)
	if p2.K != 8 || p2.Tau != 0.025 || p2.Method != MethodStairline {
		t.Fatalf("unexpected 2d defaults: %+v", p2)
	}
	if DefaultParams(3).K != 16 {
		t.Fatalf("3d default K should be 16")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams(2).Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if err := (Params{K: -1, Tau: 0.1, Method: MethodSkyline}).Validate(); err == nil {
		t.Error("negative K must be rejected")
	}
	if err := (Params{K: 1, Tau: 1.5, Method: MethodSkyline}).Validate(); err == nil {
		t.Error("tau >= 1 must be rejected")
	}
	if err := (Params{K: 1, Tau: 0.1, Method: Method(7)}).Validate(); err == nil {
		t.Error("unknown method must be rejected")
	}
}

func TestMethodString(t *testing.T) {
	if MethodSkyline.String() != "CSKY" || MethodStairline.String() != "CSTA" {
		t.Error("method names should match the paper")
	}
	if Method(9).String() == "" {
		t.Error("unknown method should still render")
	}
}

func TestClipEmptyInputs(t *testing.T) {
	mbb := geom.R(0, 0, 10, 10)
	if Clip(mbb, nil, DefaultParams(2)) != nil {
		t.Error("no children → no clip points")
	}
	if Clip(mbb, []geom.Rect{geom.R(0, 0, 1, 1)}, Params{K: 0, Tau: 0, Method: MethodSkyline}) != nil {
		t.Error("K=0 → no clip points")
	}
	// Zero-volume MBB (a point dataset leaf) cannot be clipped.
	pointMBB := geom.PointRect(geom.Pt(1, 1))
	if Clip(pointMBB, []geom.Rect{geom.PointRect(geom.Pt(1, 1))}, DefaultParams(2)) != nil {
		t.Error("zero-volume MBB → no clip points")
	}
}

func TestClipFigure2Skyline(t *testing.T) {
	objs := figure2Objects()
	mbb := geom.MBROf(objs)
	if !mbb.Equal(geom.R(0, 0, 10, 10)) {
		t.Fatalf("example MBB = %v", mbb)
	}
	clips := Clip(mbb, objs, Params{K: 8, Tau: 0.0, Method: MethodSkyline})
	if len(clips) == 0 {
		t.Fatal("expected skyline clip points for the running example")
	}
	// Every clip point coordinate must coincide with a corner of some object
	// (object-situated property of CSKY).
	for _, c := range clips {
		found := false
		for _, o := range objs {
			geom.Corners(2, func(b geom.Corner) {
				if o.Corner(b).Equal(c.Coord) {
					found = true
				}
			})
		}
		if !found {
			t.Errorf("CSKY clip point %v does not lie on any object corner", c)
		}
	}
	// Clip points are ordered by descending score.
	for i := 1; i < len(clips); i++ {
		if clips[i].Score > clips[i-1].Score+1e-12 {
			t.Errorf("clips not sorted by score: %g before %g", clips[i-1].Score, clips[i].Score)
		}
	}
}

func TestClipFigure2StairlineBeatsSkyline(t *testing.T) {
	objs := figure2Objects()
	mbb := geom.MBROf(objs)
	pSky := Params{K: 8, Tau: 0.0, Method: MethodSkyline}
	pSta := Params{K: 8, Tau: 0.0, Method: MethodStairline}
	sky := Clip(mbb, objs, pSky)
	sta := Clip(mbb, objs, pSta)
	vSky := ClippedVolume(mbb, sky)
	vSta := ClippedVolume(mbb, sta)
	if vSta < vSky {
		t.Fatalf("stairline clipping (%.2f) should clip at least as much as skyline (%.2f)", vSta, vSky)
	}
	if vSta <= 0 || vSky <= 0 {
		t.Fatal("both methods should clip some dead space on the running example")
	}
	// The top-right corner region above o1 and o4 (the paper's point c) is a
	// big empty block; stairline clipping should find most of it.
	deadTopRight := geom.R(3, 4, 10, 10).Volume() - geom.R(3, 4, 3, 9).Volume() // o1 only touches the boundary
	_ = deadTopRight
	if vSta < 0.3*mbb.Volume() {
		t.Errorf("stairline should clip a substantial share of the example MBB, got %.1f%%",
			100*vSta/mbb.Volume())
	}
}

func TestClipRespectsKAndTau(t *testing.T) {
	objs := figure2Objects()
	mbb := geom.MBROf(objs)
	for _, k := range []int{1, 2, 4, 8} {
		clips := Clip(mbb, objs, Params{K: k, Tau: 0.0, Method: MethodStairline})
		if len(clips) > k {
			t.Errorf("K=%d but %d clip points returned", k, len(clips))
		}
	}
	// With a very high tau nothing qualifies.
	if got := Clip(mbb, objs, Params{K: 8, Tau: 0.99, Method: MethodStairline}); len(got) != 0 {
		t.Errorf("tau=0.99 should reject all clip points, got %d", len(got))
	}
	// All stored scores exceed tau * volume.
	tau := 0.05
	for _, c := range Clip(mbb, objs, Params{K: 8, Tau: tau, Method: MethodStairline}) {
		if c.Score <= tau*mbb.Volume() {
			t.Errorf("clip point with score %g below tau threshold %g stored", c.Score, tau*mbb.Volume())
		}
	}
}

func TestClipPointRegionAndString(t *testing.T) {
	mbb := geom.R(0, 0, 10, 10)
	c := ClipPoint{Coord: geom.Pt(7, 8), Mask: 0b11, Score: 6}
	if !c.Region(mbb).Equal(geom.R(7, 8, 10, 10)) {
		t.Errorf("Region = %v", c.Region(mbb))
	}
	if c.String() != "<(7, 8), 11>" {
		t.Errorf("String = %q", c.String())
	}
}

// The key soundness invariant (Definition 2): a clip point never clips away
// space occupied by a child. We verify that no child rectangle overlaps the
// open interior of any clipped region, for both methods, on random inputs.
func TestClipNeverClipsOccupiedSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		dims := 2 + rng.Intn(2)
		n := 2 + rng.Intn(30)
		children := make([]geom.Rect, n)
		for i := range children {
			lo := make(geom.Point, dims)
			hi := make(geom.Point, dims)
			for d := 0; d < dims; d++ {
				a := float64(rng.Intn(100))
				w := float64(rng.Intn(20))
				lo[d], hi[d] = a, a+w
			}
			children[i] = geom.Rect{Lo: lo, Hi: hi}
		}
		mbb := geom.MBROf(children)
		for _, method := range []Method{MethodSkyline, MethodStairline} {
			clips := Clip(mbb, children, Params{K: 1 << uint(dims+1), Tau: 0, Method: method})
			for _, c := range clips {
				region := c.Region(mbb)
				for _, ch := range children {
					if region.OverlapVolume(ch) > 1e-9 {
						t.Fatalf("%v clip point %v clips into child %v (region %v, overlap %g)",
							method, c, ch, region, region.OverlapVolume(ch))
					}
				}
			}
		}
	}
}

func TestIntersectsDisjointMBB(t *testing.T) {
	mbb := geom.R(0, 0, 10, 10)
	q := geom.R(20, 20, 30, 30)
	if Intersects(mbb, nil, q, SelectorQuery) {
		t.Error("disjoint query must not intersect")
	}
}

func TestIntersectsNoClips(t *testing.T) {
	mbb := geom.R(0, 0, 10, 10)
	q := geom.R(5, 5, 6, 6)
	if !Intersects(mbb, nil, q, SelectorQuery) {
		t.Error("query inside MBB with no clips must intersect")
	}
}

func TestIntersectsFigure6(t *testing.T) {
	// Figure 6a: the query overlaps only dead space of the bottom node and
	// is pruned by the first clip point; Figure 6b: the query overlaps live
	// space of the top node and is not pruned.
	objs := figure2Objects()
	mbb := geom.MBROf(objs)
	clips := Clip(mbb, objs, Params{K: 8, Tau: 0, Method: MethodStairline})
	// A query sitting in the big empty top-right block, away from o1 and o4.
	deadQ := geom.R(5, 6, 8, 8)
	if Intersects(mbb, clips, deadQ, SelectorQuery) {
		t.Error("query entirely in clipped dead space should be pruned")
	}
	// A query overlapping o4 must never be pruned.
	liveQ := geom.R(7, 3, 8, 6)
	if !Intersects(mbb, clips, liveQ, SelectorQuery) {
		t.Error("query overlapping an object must not be pruned")
	}
}

func TestIntersectsUnknownSelectorConservative(t *testing.T) {
	objs := figure2Objects()
	mbb := geom.MBROf(objs)
	clips := Clip(mbb, objs, DefaultParams(2))
	q := geom.R(5, 6, 8, 8)
	if !Intersects(mbb, clips, q, Selector(42)) {
		t.Error("unknown selector must never prune")
	}
}

// No false pruning: whenever a query rectangle intersects at least one
// child, the clipped intersection test must return true. (The converse —
// pruning everything prunable — is a performance property, not correctness.)
func TestIntersectsNeverFalselyPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 300; iter++ {
		dims := 2 + rng.Intn(2)
		n := 2 + rng.Intn(25)
		children := make([]geom.Rect, n)
		for i := range children {
			lo := make(geom.Point, dims)
			hi := make(geom.Point, dims)
			for d := 0; d < dims; d++ {
				a := float64(rng.Intn(50))
				lo[d], hi[d] = a, a+float64(rng.Intn(10))
			}
			children[i] = geom.Rect{Lo: lo, Hi: hi}
		}
		mbb := geom.MBROf(children)
		for _, method := range []Method{MethodSkyline, MethodStairline} {
			clips := Clip(mbb, children, Params{K: 1 << uint(dims+1), Tau: 0, Method: method})
			for q := 0; q < 30; q++ {
				lo := make(geom.Point, dims)
				hi := make(geom.Point, dims)
				for d := 0; d < dims; d++ {
					a := float64(rng.Intn(60)) - 5
					lo[d], hi[d] = a, a+float64(rng.Intn(15))
				}
				query := geom.Rect{Lo: lo, Hi: hi}
				hitsChild := false
				for _, ch := range children {
					if ch.Intersects(query) {
						hitsChild = true
						break
					}
				}
				if hitsChild && !Intersects(mbb, clips, query, SelectorQuery) {
					t.Fatalf("false prune (%v): query %v intersects a child but was pruned", method, query)
				}
			}
		}
	}
}

func TestValidAfterInsert(t *testing.T) {
	objs := figure2Objects()
	mbb := geom.MBROf(objs)
	clips := Clip(mbb, objs, Params{K: 8, Tau: 0, Method: MethodStairline})
	if len(clips) == 0 {
		t.Fatal("need clip points for this test")
	}
	// Inserting an object deep in the clipped top-right block invalidates.
	intruder := geom.R(6, 6, 8, 8)
	if ValidAfterInsert(mbb, clips, intruder) {
		t.Error("object inside clipped dead space must invalidate the CBB")
	}
	// Inserting an object inside already-occupied space keeps clips valid.
	nested := geom.R(6.5, 1, 7.5, 2) // inside o4
	if !ValidAfterInsert(mbb, clips, nested) {
		t.Error("object inside live space must not invalidate the CBB")
	}
}

// Insert validity is consistent with clipping: if ValidAfterInsert says the
// clips survive, none of the clipped regions may overlap the new object.
func TestValidAfterInsertConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 200; iter++ {
		dims := 2 + rng.Intn(2)
		n := 3 + rng.Intn(20)
		children := make([]geom.Rect, n)
		for i := range children {
			lo := make(geom.Point, dims)
			hi := make(geom.Point, dims)
			for d := 0; d < dims; d++ {
				a := float64(rng.Intn(40))
				lo[d], hi[d] = a, a+1+float64(rng.Intn(8))
			}
			children[i] = geom.Rect{Lo: lo, Hi: hi}
		}
		mbb := geom.MBROf(children)
		clips := Clip(mbb, children, Params{K: 1 << uint(dims+1), Tau: 0, Method: MethodStairline})
		lo := make(geom.Point, dims)
		hi := make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			a := mbb.Lo[d] + rng.Float64()*(mbb.Hi[d]-mbb.Lo[d])
			lo[d], hi[d] = a, a+rng.Float64()*5
		}
		obj := geom.Rect{Lo: lo, Hi: hi}
		valid := ValidAfterInsert(mbb, clips, obj)
		overlapsDead := false
		for _, c := range clips {
			if c.Region(mbb).OverlapVolume(obj) > 1e-9 {
				overlapsDead = true
				break
			}
		}
		if valid && overlapsDead {
			t.Fatalf("clips reported valid but object %v overlaps a clipped region", obj)
		}
		if !valid && !overlapsDead {
			t.Fatalf("clips reported invalid but object %v overlaps no clipped region", obj)
		}
	}
}

func TestCoversPoint(t *testing.T) {
	mbb := geom.R(0, 0, 10, 10)
	clips := []ClipPoint{{Coord: geom.Pt(7, 7), Mask: 0b11}}
	if !CoversPoint(mbb, clips, geom.Pt(8, 8)) {
		t.Error("(8,8) is strictly inside the clipped region")
	}
	if CoversPoint(mbb, clips, geom.Pt(7, 8)) {
		t.Error("boundary points are not strictly covered")
	}
	if CoversPoint(mbb, clips, geom.Pt(1, 1)) {
		t.Error("(1,1) is live space")
	}
}

func TestUnionVolume(t *testing.T) {
	cases := []struct {
		rects []geom.Rect
		want  float64
	}{
		{nil, 0},
		{[]geom.Rect{geom.R(0, 0, 2, 2)}, 4},
		{[]geom.Rect{geom.R(0, 0, 2, 2), geom.R(1, 1, 3, 3)}, 7},
		{[]geom.Rect{geom.R(0, 0, 2, 2), geom.R(4, 4, 5, 5)}, 5},
		{[]geom.Rect{geom.R(0, 0, 2, 2), geom.R(0, 0, 2, 2)}, 4},
		{[]geom.Rect{geom.R(0, 0, 0, 2, 2, 2), geom.R(1, 1, 1, 3, 3, 3)}, 15},
	}
	for i, c := range cases {
		if got := UnionVolume(c.rects); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("case %d: UnionVolume = %g, want %g", i, got, c.want)
		}
	}
}

// The additive score approximation never exceeds reasonable bounds: the
// exact union is at most the sum of individual volumes, and for the stored
// clip set the approximation should be within the union's ballpark.
func TestScoreApproximationSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 100; iter++ {
		n := 3 + rng.Intn(15)
		children := make([]geom.Rect, n)
		for i := range children {
			a, b := float64(rng.Intn(80)), float64(rng.Intn(80))
			children[i] = geom.R(a, b, a+1+float64(rng.Intn(10)), b+1+float64(rng.Intn(10)))
		}
		mbb := geom.MBROf(children)
		clips := Clip(mbb, children, Params{K: 8, Tau: 0, Method: MethodStairline})
		if len(clips) == 0 {
			continue
		}
		exact := ClippedVolume(mbb, clips)
		var sumIndividual float64
		for _, c := range clips {
			sumIndividual += c.Region(mbb).Volume()
		}
		if exact > sumIndividual+1e-9 {
			t.Fatalf("union volume %g exceeds sum of parts %g", exact, sumIndividual)
		}
		if exact > mbb.Volume()+1e-9 {
			t.Fatalf("union volume %g exceeds node volume %g", exact, mbb.Volume())
		}
	}
}

func BenchmarkClipSkyline2D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	children := make([]geom.Rect, 100)
	for i := range children {
		a, c := rng.Float64()*100, rng.Float64()*100
		children[i] = geom.R(a, c, a+rng.Float64()*10, c+rng.Float64()*10)
	}
	mbb := geom.MBROf(children)
	p := Params{K: 8, Tau: 0.025, Method: MethodSkyline}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Clip(mbb, children, p)
	}
}

func BenchmarkClipStairline3D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	children := make([]geom.Rect, 100)
	for i := range children {
		a, c, d := rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
		children[i] = geom.R(a, c, d, a+rng.Float64()*10, c+rng.Float64()*10, d+rng.Float64()*10)
	}
	mbb := geom.MBROf(children)
	p := Params{K: 16, Tau: 0.025, Method: MethodStairline}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Clip(mbb, children, p)
	}
}

func BenchmarkIntersectsClipped(b *testing.B) {
	objs := figure2Objects()
	mbb := geom.MBROf(objs)
	clips := Clip(mbb, objs, DefaultParams(2))
	q := geom.R(5, 6, 8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Intersects(mbb, clips, q, SelectorQuery)
	}
}
