package skyline

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cbb/internal/geom"
)

func TestOrientedSimple2D(t *testing.T) {
	// Points w.r.t. corner 00 (minimise both): (1,5), (2,2), (5,1) are the
	// skyline; (3,3) is dominated by (2,2); (6,6) is dominated by everything.
	pts := []geom.Point{
		geom.Pt(1, 5), geom.Pt(2, 2), geom.Pt(5, 1), geom.Pt(3, 3), geom.Pt(6, 6),
	}
	sky := Oriented(pts, 0b00)
	if len(sky) != 3 {
		t.Fatalf("skyline size = %d, want 3: %v", len(sky), sky)
	}
	want := map[string]bool{"(1, 5)": true, "(2, 2)": true, "(5, 1)": true}
	for _, p := range sky {
		if !want[p.String()] {
			t.Errorf("unexpected skyline point %v", p)
		}
	}
}

func TestOrientedOppositeCorner(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(9, 9), geom.Pt(5, 5)}
	sky := Oriented(pts, 0b11)
	if len(sky) != 1 || !sky[0].Equal(geom.Pt(9, 9)) {
		t.Fatalf("skyline w.r.t. 11 = %v, want only (9,9)", sky)
	}
}

func TestOrientedEdgeCases(t *testing.T) {
	if Oriented(nil, 0) != nil {
		t.Error("empty input should give nil")
	}
	one := Oriented([]geom.Point{geom.Pt(1, 2)}, 0b01)
	if len(one) != 1 || !one[0].Equal(geom.Pt(1, 2)) {
		t.Errorf("single point skyline = %v", one)
	}
	// Duplicates collapse to one point.
	dup := Oriented([]geom.Point{geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(1, 1)}, 0b00)
	if len(dup) != 1 {
		t.Errorf("duplicate points should collapse, got %v", dup)
	}
}

func TestOrientedTies(t *testing.T) {
	// Points sharing a coordinate: (1,3) and (1,5) w.r.t. 00 — (1,3)
	// dominates (1,5) because it ties on x and is closer on y.
	sky := Oriented([]geom.Point{geom.Pt(1, 3), geom.Pt(1, 5)}, 0b00)
	if len(sky) != 1 || !sky[0].Equal(geom.Pt(1, 3)) {
		t.Fatalf("tie handling wrong: %v", sky)
	}
}

func TestOriented3D(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(1, 1, 9), geom.Pt(9, 1, 1), geom.Pt(1, 9, 1),
		geom.Pt(5, 5, 5), geom.Pt(2, 2, 9),
	}
	sky := Oriented(pts, 0b000)
	// (2,2,9) is dominated by (1,1,9); (5,5,5) is not dominated by any.
	if len(sky) != 4 {
		t.Fatalf("3d skyline = %v, want 4 points", sky)
	}
	for _, p := range sky {
		if p.Equal(geom.Pt(2, 2, 9)) {
			t.Error("(2,2,9) should have been dominated")
		}
	}
}

func TestFigure2SkylineExample(t *testing.T) {
	// Reconstruction of the paper's Figure 2 discussion: the corners of the
	// five objects nearest corner R^00; the skyline excludes o5's corner
	// because o3 and o4 dominate it.
	o1 := geom.Pt(1, 6)
	o2 := geom.Pt(2, 4)
	o3 := geom.Pt(4, 3)
	o4 := geom.Pt(6, 1)
	o5 := geom.Pt(8, 2)
	sky := Oriented([]geom.Point{o1, o2, o3, o4, o5}, 0b00)
	if len(sky) != 4 {
		t.Fatalf("expected skyline {o1,o2,o3,o4}, got %v", sky)
	}
	for _, p := range sky {
		if p.Equal(o5) {
			t.Error("o5 must not be in the 00-skyline")
		}
	}
}

func TestStairlineAddsSplices(t *testing.T) {
	// Figure 2's key example at corner 11: skyline points o1^11=(3,9) and
	// o4^11=(9,4) splice (with mask 00) to c=(3,4), which is a valid clip
	// point and clips more area than either.
	pts := []geom.Point{geom.Pt(3, 9), geom.Pt(9, 4)}
	sta := Stairline(pts, 0b11)
	foundSplice := false
	for _, p := range sta {
		if p.Equal(geom.Pt(3, 4)) {
			foundSplice = true
		}
	}
	if !foundSplice {
		t.Fatalf("stairline %v should contain spliced point (3,4)", sta)
	}
	if len(sta) != 3 {
		t.Fatalf("stairline should be skyline (2) + 1 splice, got %v", sta)
	}
}

func TestStairlineRejectsInvalidSplices(t *testing.T) {
	// Three skyline points forming a staircase: splicing the two outermost
	// points produces a point dominated by the middle point, so that splice
	// must be rejected while the two adjacent splices are kept.
	pts := []geom.Point{geom.Pt(1, 9), geom.Pt(5, 5), geom.Pt(9, 1)}
	sta := Stairline(pts, 0b11)
	for _, p := range sta {
		if p.Equal(geom.Pt(1, 1)) {
			t.Fatalf("splice (1,1) clips away the middle child and must be rejected: %v", sta)
		}
	}
	// Valid splices: (1,5) and (5,1).
	wantSplices := []geom.Point{geom.Pt(1, 5), geom.Pt(5, 1)}
	for _, w := range wantSplices {
		found := false
		for _, p := range sta {
			if p.Equal(w) {
				found = true
			}
		}
		if !found {
			t.Errorf("expected valid splice %v in stairline %v", w, sta)
		}
	}
}

// splicesOnly is the stairline minus the skyline: the splices are the tail of
// Stairline's result.
func splicesOnly(pts []geom.Point, b geom.Corner) []geom.Point {
	return Stairline(pts, b)[len(Oriented(pts, b)):]
}

func TestSplicesOnly(t *testing.T) {
	pts := []geom.Point{geom.Pt(3, 9), geom.Pt(9, 4)}
	sp := splicesOnly(pts, 0b11)
	if len(sp) != 1 || !sp[0].Equal(geom.Pt(3, 4)) {
		t.Fatalf("splicesOnly = %v", sp)
	}
	if len(splicesOnly([]geom.Point{geom.Pt(1, 1)}, 0b11)) != 0 {
		t.Error("single point cannot produce splices")
	}
}

// isDominated reports whether p is dominated w.r.t. b by any point in set.
func isDominated(p geom.Point, set []geom.Point, b geom.Corner) bool {
	for _, q := range set {
		if geom.Dominates(q, p, b) {
			return true
		}
	}
	return false
}

func TestIsDominated(t *testing.T) {
	set := []geom.Point{geom.Pt(2, 2)}
	if !isDominated(geom.Pt(3, 3), set, 0b00) {
		t.Error("(3,3) should be dominated by (2,2) w.r.t. 00")
	}
	if isDominated(geom.Pt(1, 3), set, 0b00) {
		t.Error("(1,3) should not be dominated by (2,2) w.r.t. 00")
	}
}

func randomPoints(rng *rand.Rand, n, dims int, grid int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			if grid > 0 {
				p[d] = float64(rng.Intn(grid))
			} else {
				p[d] = rng.Float64() * 100
			}
		}
		pts[i] = p
	}
	return pts
}

// Property: the skyline is mutually non-dominated, every input point is
// either in the skyline or dominated by a skyline point, and the 2d
// sort-and-scan agrees with the generic algorithm.
func TestSkylineProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		dims := 2 + rng.Intn(2)
		pts := randomPoints(rng, 1+rng.Intn(40), dims, 12) // small grid forces ties/duplicates
		geom.Corners(dims, func(b geom.Corner) {
			sky := Oriented(pts, b)
			// Mutually non-dominated.
			for i, p := range sky {
				for j, q := range sky {
					if i != j && geom.Dominates(p, q, b) {
						t.Fatalf("skyline contains dominated point %v (by %v)", q, p)
					}
				}
			}
			// Completeness.
			for _, p := range pts {
				inSky := false
				for _, s := range sky {
					if s.Equal(p) {
						inSky = true
						break
					}
				}
				if !inSky && !isDominated(p, sky, b) {
					t.Fatalf("point %v neither in skyline nor dominated (corner %s)", p, b.StringDims(dims))
				}
			}
			// Cross-check the two algorithms in 2d.
			if dims == 2 {
				gen := refOrientedGeneric(pts, b)
				if len(gen) != len(sky) {
					t.Fatalf("2d scan and generic disagree: %d vs %d (%v vs %v)", len(sky), len(gen), sky, gen)
				}
			}
		})
	}
}

// Property: every stairline point is a valid clip candidate — no input
// point is strictly closer to the corner in every dimension (which would
// mean the clip region's interior cuts into a child), and the stairline is a
// superset of the skyline.
func TestStairlineProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 150; iter++ {
		dims := 2 + rng.Intn(2)
		pts := randomPoints(rng, 2+rng.Intn(20), dims, 10)
		geom.Corners(dims, func(b geom.Corner) {
			sky := Oriented(pts, b)
			sta := Stairline(pts, b)
			if len(sta) < len(sky) {
				t.Fatalf("stairline smaller than skyline")
			}
			for _, s := range sta {
				for _, p := range pts {
					if geom.StrictlyDominates(p, s, b) {
						t.Fatalf("stairline point %v clips into child corner %v (corner %s)",
							s, p, b.StringDims(dims))
					}
				}
			}
		})
	}
}

// samePoints reports whether two candidate lists agree in length, order and
// the bit pattern of every coordinate.
func samePoints(got, want []geom.Point) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !refBitsEqual(got[i], want[i]) {
			return false
		}
	}
	return true
}

// checkCandidatesMatchReference fails the test unless the skyline and the
// stairline of pts agree with the old generator's at every corner.
func checkCandidatesMatchReference(t *testing.T, pts []geom.Point) {
	t.Helper()
	dims := pts[0].Dims()
	geom.Corners(dims, func(b geom.Corner) {
		if got, want := Oriented(pts, b), refOriented(pts, b); !samePoints(got, want) {
			t.Fatalf("dims %d corner %s: skyline of %v\n got %v\nwant %v", dims, b.StringDims(dims), pts, got, want)
		}
		if got, want := Stairline(pts, b), refStairline(pts, b); !samePoints(got, want) {
			t.Fatalf("dims %d corner %s: stairline of %v\n got %v\nwant %v", dims, b.StringDims(dims), pts, got, want)
		}
	})
}

// pageFanout is the node capacity M of a 4 KiB page in dims dimensions
// (rtree.MaxEntriesForPage): the most points a corner of a node of the
// default page size has.
var pageFanout = [...]int{1: 170, 2: 102, 3: 72, 4: 56}

// The flat pipeline without a floor is the old generator, bit for bit and in
// the same order: ties, duplicates, signed zeros and all.
func TestCandidatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 600; iter++ {
		dims := 1 + rng.Intn(4)
		grid := []int{0, 3, 12}[rng.Intn(3)]
		pts := randomPoints(rng, 1+rng.Intn(pageFanout[dims]), dims, grid)
		for _, p := range pts {
			for d := range p {
				if p[d] == 0 && rng.Intn(2) == 0 {
					p[d] = math.Copysign(0, -1)
				}
			}
		}
		checkCandidatesMatchReference(t, pts)
	}
}

// A skyline of more than 64 points takes the general pair loop over
// multi-word closer sets in three dimensions and the longest staircase in
// two: points on the plane Σ x_d = 100 are all in the skyline.
func TestCandidatesMatchReferenceLargeSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, dims := range []int{2, 3} {
		pts := make([]geom.Point, 100)
		for i := range pts {
			p := make(geom.Point, dims)
			p[0] = 100
			for d := 1; d < dims; d++ {
				p[d] = float64(rng.Intn(1 << 20))
				p[0] -= p[d]
			}
			pts[i] = p
		}
		var s Scratch
		flat := slices.Concat(pts...)
		s.Load(flat, flat, dims)
		s.Candidates(0, make([]float64, dims), math.Inf(-1), true)
		if len(s.sky) <= 64 {
			t.Fatalf("dims %d: skyline of %d points, want more than 64", dims, len(s.sky))
		}
		checkCandidatesMatchReference(t, pts)
	}
}

// FuzzCandidatesMatchReference lets the fuzzer place up to 150 points of
// dims 1–4 on a small alphabet of coordinates, both zeros included: ties,
// duplicates and signed zeros in every dimension.
func FuzzCandidatesMatchReference(f *testing.F) {
	f.Add(uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(2), []byte{0, 16, 0, 16, 1, 1, 2, 2, 9, 1, 1, 9, 5, 5, 3, 7, 7, 3})
	f.Add(uint8(0), []byte{0, 1, 0, 1})
	f.Add(uint8(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	alphabet := []float64{math.Copysign(0, -1), 0, 1, 2, 3, 5, 8, 13, -1, -2, -3, -5, -8, -13, 0.5, -0.5, 1e-300}
	f.Fuzz(func(t *testing.T, d uint8, data []byte) {
		dims := 1 + int(d)%4
		var pts []geom.Point
		for len(data) >= dims && len(pts) < 150 {
			p := make(geom.Point, dims)
			for i := range p {
				p[i] = alphabet[int(data[i])%len(alphabet)]
			}
			pts = append(pts, p)
			data = data[dims:]
		}
		if len(pts) > 0 {
			checkCandidatesMatchReference(t, pts)
		}
	})
}

func BenchmarkOriented2D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 128, 2, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Oriented(pts, geom.Corner(i%4))
	}
}

func BenchmarkStairline3D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 64, 3, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Stairline(pts, geom.Corner(i%8))
	}
}

// Oriented returns the skyline of pts with respect to corner orientation b:
// the subset of points not dominated by any other point (Definition 5), one
// representative per group of equal points, in the order Scratch.Candidates
// documents. The result is freshly allocated; pts is not modified.
func Oriented(pts []geom.Point, b geom.Corner) []geom.Point {
	return candidates(pts, b, false)
}

// Stairline returns the oriented skyline of pts w.r.t. b followed by all
// valid splice points generated from pairs of skyline points (Definition 7),
// in the order Scratch.Candidates documents. A splice point s = splice(p, q,
// ~b) is valid when no skyline point strictly dominates it w.r.t. b — i.e.
// when clipping with s would not clip away any child. Skyline points that are
// themselves dominated by a generated splice point are redundant for clipping
// purposes but are still returned; the CBB scoring stage in internal/core
// decides which candidates to keep. It is Scratch.Candidates without a floor:
// every valid splice is kept, and compared with all those before it.
func Stairline(pts []geom.Point, b geom.Corner) []geom.Point {
	return candidates(pts, b, true)
}

// candidates adapts Scratch.Candidates to geom.Point in and out: reflect,
// load the points as both slabs, ask for corner 0 (which reads every
// dimension from lo) with a floor nothing falls under, reflect back.
func candidates(pts []geom.Point, b geom.Corner, splice bool) []geom.Point {
	if len(pts) == 0 {
		return nil
	}
	dims := pts[0].Dims()
	flat := make([]float64, len(pts)*dims)
	origin := make([]float64, dims)
	for i, p := range pts {
		r := flat[i*dims:][:dims]
		Reflect(r, p, b)
		for d, v := range r {
			if i == 0 || v < origin[d] {
				origin[d] = v
			}
		}
	}
	var s Scratch
	s.Load(flat, flat, dims)
	coords, _ := s.Candidates(0, origin, math.Inf(-1), splice)
	out := make([]geom.Point, len(coords)/dims)
	for i := range out {
		p := coords[i*dims : (i+1)*dims : (i+1)*dims]
		Reflect(p, p, b)
		out[i] = p
	}
	return out
}
