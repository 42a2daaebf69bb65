package clipindex

import (
	"math"
	"math/rand"
	"testing"
)

// refClipQDown and refClipQUp are the v2 clip-point quantisation as it was
// before the certified estimate, kept verbatim: a binary search over
// clipQDecode for the value the definition names. clipGrid.clipQDown and
// clipQUp must give the same (q, ok) for every input.
func refClipQDown(x, lo, hi float64) (uint32, bool) {
	if !gridOK(lo, hi) || math.IsNaN(x) || clipQDecode(lo, hi, 0) > x {
		return 0, false
	}
	a, b := uint64(0), uint64(clipQMax)+1 // decode(a) <= x; b is past the last candidate
	for b-a > 1 {
		if m := (a + b) / 2; clipQDecode(lo, hi, uint32(m)) <= x {
			a = m
		} else {
			b = m
		}
	}
	return uint32(a), true
}

func refClipQUp(x, lo, hi float64) (uint32, bool) {
	if !gridOK(lo, hi) || math.IsNaN(x) || clipQDecode(lo, hi, clipQMax) < x {
		return 0, false
	}
	a, b := int64(-1), int64(clipQMax) // decode(b) >= x; a is before the first candidate
	for b-a > 1 {
		if m := (a + b) / 2; clipQDecode(lo, hi, uint32(m)) >= x {
			b = m
		} else {
			a = m
		}
	}
	return uint32(b), true
}

// checkQuantise fails t unless both roundings of x on [lo, hi] agree with
// the reference bisection.
func checkQuantise(t testing.TB, x, lo, hi float64) {
	t.Helper()
	g := newClipGrid(lo, hi)
	q, ok := g.clipQDown(x)
	if wq, wok := refClipQDown(x, lo, hi); q != wq || ok != wok {
		t.Fatalf("clipQDown(%v) on [%v, %v] = (%d, %v), bisection (%d, %v)", x, lo, hi, q, ok, wq, wok)
	}
	q, ok = g.clipQUp(x)
	if wq, wok := refClipQUp(x, lo, hi); q != wq || ok != wok {
		t.Fatalf("clipQUp(%v) on [%v, %v] = (%d, %v), bisection (%d, %v)", x, lo, hi, q, ok, wq, wok)
	}
}

// quantiseUniverses are the ranges the certified estimate is held to the
// bisection on: ordinary ones, one whose width is not a power of two, grids
// finer than the float64 spacing of their coordinates (where the bisection
// must answer), a nearly full-range one and a very narrow one.
var quantiseUniverses = [][2]float64{
	{0, 1},
	{-1000, 1000},
	{3, 1e6 + 3},
	{1e6, 1e6 + 3},
	{0, 1e15 + 1},
	{1e15, 1e15 + 1},
	{-1e300, 1e300},
	{0.25, 0.25 + 1e-7},
}

func TestClipQuantiseMatchesBisection(t *testing.T) {
	samples := 20000
	if testing.Short() {
		samples = 2000
	}
	rng := rand.New(rand.NewSource(7))
	for _, u := range quantiseUniverses {
		lo, hi := u[0], u[1]
		edges := []uint32{0, 1, 2, 3, clipQMax / 2, clipQMax - 3, clipQMax - 2, clipQMax - 1, clipQMax}
		for i := 0; i < samples; i++ {
			edges = append(edges, rng.Uint32())
		}
		for _, q := range edges {
			x := clipQDecode(lo, hi, q)
			checkQuantise(t, x, lo, hi)
			checkQuantise(t, math.Nextafter(x, math.Inf(1)), lo, hi)
			checkQuantise(t, math.Nextafter(x, math.Inf(-1)), lo, hi)
			if q < clipQMax {
				checkQuantise(t, x+(clipQDecode(lo, hi, q+1)-x)/2, lo, hi)
			}
		}
		w := hi - lo
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), lo - w, hi + w,
			math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1)), -math.MaxFloat64, math.MaxFloat64} {
			checkQuantise(t, x, lo, hi)
		}
	}
	// Ranges without a grid answer !ok on both paths.
	for _, u := range [][2]float64{{1, 1}, {1, 0}, {-math.MaxFloat64, math.MaxFloat64}, {0, math.Inf(1)}, {math.NaN(), 1}} {
		for _, x := range []float64{0, 0.5, 1, math.NaN()} {
			checkQuantise(t, x, u[0], u[1])
		}
	}
}

// TestClipQuantiseCertifiesMost guards the fast path itself: on an ordinary
// universe nearly every coordinate is answered by the estimate, not the
// bisection.
func TestClipQuantiseCertifiesMost(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, u := range [][2]float64{{0, 1}, {-1000, 1000}, {3, 1e6 + 3}} {
		g, certified := newClipGrid(u[0], u[1]), 0
		const n = 10000
		for range n {
			if _, ok := g.certain(u[0] + rng.Float64()*(u[1]-u[0])); ok {
				certified++
			}
		}
		if certified < n*95/100 {
			t.Errorf("[%v, %v]: the estimate certified %d of %d coordinates, want at least 95 %%", u[0], u[1], certified, n)
		}
	}
}

func FuzzClipQuantise(f *testing.F) {
	for _, u := range quantiseUniverses {
		f.Add(u[0]+(u[1]-u[0])/3, u[0], u[1])
	}
	f.Add(math.NaN(), 0.0, 1.0)
	f.Add(2.0, 0.0, 1.0)
	f.Add(0.5, 1.0, 0.0)
	f.Fuzz(func(t *testing.T, x, lo, hi float64) {
		checkQuantise(t, x, lo, hi)
	})
}
