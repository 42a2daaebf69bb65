package querygen

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"cbb/internal/datasets"
	"cbb/internal/geom"
)

func TestProfileBasics(t *testing.T) {
	if QR0.String() != "QR0" || QR1.String() != "QR1" || QR2.String() != "QR2" {
		t.Error("profile names wrong")
	}
	if Profile(9).String() == "" {
		t.Error("unknown profile should render")
	}
	if QR0.Target() != 1 || QR1.Target() != 10 || QR2.Target() != 100 {
		t.Error("profile targets wrong")
	}
	if Profile(9).Target() != 1 {
		t.Error("unknown profile should default to 1")
	}
	if len(AllProfiles()) != 3 {
		t.Error("AllProfiles should list QR0..QR2")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, geom.R(0, 0, 1, 1), 1); err == nil {
		t.Error("no objects should error")
	}
	objs := []geom.Rect{geom.R(0, 0, 1, 1)}
	if _, err := New(objs, geom.Rect{}, 1); err == nil {
		t.Error("invalid universe should error")
	}
	if _, err := New(objs, geom.R(0, 0, 0, 1, 1, 1), 1); err == nil {
		t.Error("dimension mismatch should error")
	}
	// Only a later object is short: binning must reject it, not index past
	// its coordinates.
	for _, bad := range []geom.Rect{
		geom.R(5, 6),
		{Lo: geom.Pt(1, 2), Hi: geom.Pt(3)},
		{Lo: geom.Pt(1, 2, 3), Hi: geom.Pt(4, 5, 6)},
	} {
		objs := []geom.Rect{geom.R(0, 0, 1, 1), geom.R(2, 2, 3, 3), bad}
		if _, err := New(objs, geom.R(0, 0, 10, 10), 1); err == nil {
			t.Errorf("object %v of the wrong dimensionality should error", bad)
		}
	}
}

func TestQueriesStayInUniverse(t *testing.T) {
	objs, _ := datasets.Generate("par02", 5000, 1)
	uni, _ := datasets.Universe("par02")
	g, err := New(objs, uni, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range AllProfiles() {
		for _, q := range g.Queries(p, 100) {
			if !q.Valid() || !uni.ContainsRect(q) {
				t.Fatalf("query %v escapes universe", q)
			}
		}
	}
}

func TestQueriesDeterministic(t *testing.T) {
	objs, _ := datasets.Generate("rea02", 3000, 2)
	uni, _ := datasets.Universe("rea02")
	a, _ := New(objs, uni, 11)
	b, _ := New(objs, uni, 11)
	qa := a.Queries(QR1, 50)
	qb := b.Queries(QR1, 50)
	for i := range qa {
		if !qa[i].Equal(qb[i]) {
			t.Fatalf("same seed produced different query %d", i)
		}
	}
}

// TestReplayByteIdentical is the load-replay contract cmd/cbbload depends
// on: two fully independent passes — dataset regeneration from the seed,
// generator construction, and an interleaved multi-profile query stream —
// must produce byte-for-byte identical float64 coordinates, not merely
// approximately equal ones. A replayed workload is then exactly the
// recorded workload.
func TestReplayByteIdentical(t *testing.T) {
	replay := func() []byte {
		objs, err := datasets.Generate("par02", 4000, 5)
		if err != nil {
			t.Fatal(err)
		}
		uni, err := datasets.Universe("par02")
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(objs, uni, 17)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		// Interleave profiles the way a mixed workload would.
		for i := 0; i < 300; i++ {
			q := g.Query(AllProfiles()[i%3])
			for _, p := range [...]geom.Point{q.Lo, q.Hi} {
				for _, v := range p {
					bits := math.Float64bits(v)
					for s := 0; s < 64; s += 8 {
						buf = append(buf, byte(bits>>s))
					}
				}
			}
		}
		return buf
	}
	if !bytes.Equal(replay(), replay()) {
		t.Fatal("same seed and config produced a different byte sequence on replay")
	}
}

// The central property: the three profiles actually produce increasing
// result cardinalities in the right ballparks when evaluated exactly.
func TestSelectivityCalibration(t *testing.T) {
	for _, name := range []string{"par02", "rea02", "axo03"} {
		t.Run(name, func(t *testing.T) {
			objs, _ := datasets.Generate(name, 20000, 3)
			uni, _ := datasets.Universe(name)
			g, err := New(objs, uni, 13)
			if err != nil {
				t.Fatal(err)
			}
			avg := func(p Profile) float64 {
				queries := g.Queries(p, 60)
				total := 0
				for _, q := range queries {
					for _, o := range objs {
						if o.Intersects(q) {
							total++
						}
					}
				}
				return float64(total) / float64(len(queries))
			}
			a0, a1, a2 := avg(QR0), avg(QR1), avg(QR2)
			t.Logf("%s: QR0=%.1f QR1=%.1f QR2=%.1f", name, a0, a1, a2)
			if !(a0 < a1 && a1 < a2) {
				t.Fatalf("selectivities not ordered: %.1f %.1f %.1f", a0, a1, a2)
			}
			// Calibration is approximate (grid-estimated, objects larger
			// than points); accept a generous band around the targets.
			if a1 < 2 || a1 > 80 {
				t.Errorf("QR1 average %.1f too far from target 10", a1)
			}
			if a2 < 25 || a2 > 800 {
				t.Errorf("QR2 average %.1f too far from target 100", a2)
			}
		})
	}
}

func TestGridHistogramEstimate(t *testing.T) {
	// A uniform grid of points: the estimate for a window covering a quarter
	// of the universe should be ~25 % of the objects.
	var objs []geom.Rect
	for x := 0; x < 40; x++ {
		for y := 0; y < 40; y++ {
			objs = append(objs, geom.PointRect(geom.Pt(float64(x)*25+12, float64(y)*25+12)))
		}
	}
	uni := geom.R(0, 0, 1000, 1000)
	h, err := newGridHistogram(objs, uni)
	if err != nil {
		t.Fatal(err)
	}
	est := h.estimate(geom.R(0, 0, 500, 500))
	if math.Abs(est-400) > 60 {
		t.Errorf("quarter-window estimate %.0f, want ~400", est)
	}
	full := h.estimate(uni)
	if math.Abs(full-1600) > 1 {
		t.Errorf("full-window estimate %.0f, want 1600", full)
	}
}

func BenchmarkQueryGeneration(b *testing.B) {
	objs, _ := datasets.Generate("par02", 20000, 1)
	uni, _ := datasets.Universe("par02")
	g, _ := New(objs, uni, 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Query(QR1)
	}
}

// refEstimate is estimate as it was before the odometer: a recursive walk
// over the dimensions that recomputes every fraction at every inner cell.
// The odometer must agree with it to the bit.
func refEstimate(h *gridHistogram, q geom.Rect) float64 {
	loCell := make([]int, h.dims)
	hiCell := make([]int, h.dims)
	for d := 0; d < h.dims; d++ {
		loCell[d] = h.cellCoord(q.Lo[d], d)
		hiCell[d] = h.cellCoord(q.Hi[d], d)
	}
	var total float64
	idx := make([]int, h.dims)
	var walk func(d int, frac float64)
	walk = func(d int, frac float64) {
		if d == h.dims {
			flat := 0
			for i := 0; i < h.dims; i++ {
				flat = flat*h.cells + idx[i]
			}
			total += frac * float64(h.counts[flat])
			return
		}
		for c := loCell[d]; c <= hiCell[d]; c++ {
			idx[d] = c
			cellLo := h.universe.Lo[d] + float64(c)/float64(h.cells)*h.universe.Side(d)
			cellHi := h.universe.Lo[d] + float64(c+1)/float64(h.cells)*h.universe.Side(d)
			overlap := math.Min(q.Hi[d], cellHi) - math.Max(q.Lo[d], cellLo)
			width := cellHi - cellLo
			f := 1.0
			if width > 0 {
				f = overlap / width
				if f < 0 {
					f = 0
				}
				if f > 1 {
					f = 1
				}
			}
			walk(d+1, frac*f)
		}
	}
	walk(0, 1)
	return total
}

// estimateFixture bins n seeded objects in a universe of dims dimensions whose
// origin and sides differ per dimension (one side zero when flat is set).
func estimateFixture(t testing.TB, dims, n int, seed int64, flat bool) (*gridHistogram, geom.Rect) {
	rng := rand.New(rand.NewSource(seed))
	uni := geom.Rect{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
	for d := 0; d < dims; d++ {
		uni.Lo[d] = float64(d)*-37.5 + 0.1
		uni.Hi[d] = uni.Lo[d] + 100*float64(d+1) + 0.3
	}
	if flat {
		uni.Hi[dims-1] = uni.Lo[dims-1]
	}
	objs := make([]geom.Rect, n)
	for i := range objs {
		o := geom.Rect{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
		for d := 0; d < dims; d++ {
			// Clustered towards the origin, so counts differ per cell.
			u := rng.Float64()
			u *= u
			o.Lo[d] = uni.Lo[d] + u*uni.Side(d)
			o.Hi[d] = math.Min(uni.Hi[d], o.Lo[d]+rng.Float64()*uni.Side(d)/50)
		}
		objs[i] = o
	}
	h, err := newGridHistogram(objs, uni)
	if err != nil {
		t.Fatal(err)
	}
	return h, uni
}

// sameEstimate fails t unless estimate and refEstimate agree bit for bit on q.
func sameEstimate(t *testing.T, h *gridHistogram, q geom.Rect) {
	t.Helper()
	want := refEstimate(h, q)
	if got := h.estimate(q); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("dims %d cells %d window %v: estimate %v (%#x), reference %v (%#x)",
			h.dims, h.cells, q, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestEstimateMatchesReference(t *testing.T) {
	for dims := 1; dims <= 4; dims++ {
		for _, n := range []int{1, 40, 3000} {
			for _, flat := range []bool{false, true} {
				h, uni := estimateFixture(t, dims, n, int64(dims*n), flat)
				rng := rand.New(rand.NewSource(int64(n + dims)))
				cell := func(d, c int) float64 {
					return uni.Lo[d] + float64(c)/float64(h.cells)*uni.Side(d)
				}
				for trial := 0; trial < 300; trial++ {
					q := geom.Rect{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
					for d := 0; d < dims; d++ {
						span := uni.Side(d)
						a := uni.Lo[d] + rng.Float64()*span
						w := rng.Float64() * span / 4
						switch trial % 6 {
						case 0: // inside
							q.Lo[d], q.Hi[d] = a, math.Min(uni.Hi[d], a+w)
						case 1: // straddling the universe's edges, clamped there
							q.Lo[d], q.Hi[d] = uni.Lo[d]-w, uni.Hi[d]+w
							if rng.Intn(2) == 0 {
								q.Lo[d], q.Hi[d] = uni.Lo[d], uni.Hi[d]
							}
						case 2: // outside: wholly below or above
							if rng.Intn(2) == 0 {
								q.Lo[d], q.Hi[d] = uni.Lo[d]-2*w-1, uni.Lo[d]-w-1
							} else {
								q.Lo[d], q.Hi[d] = uni.Hi[d]+w+1, uni.Hi[d]+2*w+1
							}
						case 3: // degenerate: a point, on a cell boundary half the time
							if rng.Intn(2) == 0 {
								a = cell(d, rng.Intn(h.cells+1))
							}
							q.Lo[d], q.Hi[d] = a, a
						case 4: // exactly on cell boundaries
							c := rng.Intn(h.cells)
							q.Lo[d], q.Hi[d] = cell(d, c), cell(d, c+1+rng.Intn(h.cells-c))
						default: // inverted
							q.Lo[d], q.Hi[d] = a+w+1e-9, a
						}
					}
					sameEstimate(t, h, q)
				}
			}
		}
	}
}

func FuzzEstimateMatchesReference(f *testing.F) {
	f.Add(uint8(2), uint16(500), int64(1), 10.0, 20.0, 30.0, 90.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(3), uint16(4000), int64(2), -50.0, -50.0, -50.0, 1e9, 1e9, 1e9, 0.0, 0.0)
	f.Add(uint8(4), uint16(64), int64(3), 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0)
	f.Add(uint8(1), uint16(7), int64(4), 60.0, 40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, dims uint8, n uint16, seed int64, a, b, c, d, e, g, i, j float64) {
		k := 1 + int(dims%4)
		h, _ := estimateFixture(t, k, 1+int(n%4096), seed, seed%5 == 0)
		v := []float64{a, b, c, d, e, g, i, j}
		sameEstimate(t, h, geom.Rect{Lo: v[:k], Hi: v[4 : 4+k]})
	})
}

// TestCalibrationAllocs holds the bisection to no allocation and a query to
// its result's two coordinate slices.
func TestCalibrationAllocs(t *testing.T) {
	for _, name := range []string{"rea02", "axo03"} {
		objs, _ := datasets.Generate(name, 20000, 1)
		uni, _ := datasets.Universe(name)
		g, err := New(objs, uni, 1)
		if err != nil {
			t.Fatal(err)
		}
		copy(g.centre, objs[0].Lo)
		if a := testing.AllocsPerRun(50, func() { g.calibrateSide(g.centre, 10) }); a != 0 {
			t.Errorf("%s: calibrateSide allocates %.1f times, want 0", name, a)
		}
		for _, p := range AllProfiles() {
			if a := testing.AllocsPerRun(50, func() { g.Query(p) }); a > 2 {
				t.Errorf("%s: Query(%v) allocates %.1f times, want at most its result's 2", name, p, a)
			}
		}
	}
}
