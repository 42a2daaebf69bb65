package rtree

import (
	"math"
	"math/rand"
	"testing"
)

// refQlower and refQupper are the grid arithmetic as it was written before
// grid, one division per bound for the estimate and qdecode's per nudge: the
// reference grid.lower and grid.upper must reproduce bit for bit, because the
// planes, the v2 pages and the clip copies are all built from them.

func refQlower(x, lo, hi float64) uint16 {
	w := hi - lo
	if !(w > 0) {
		return 0
	}
	f := (x - lo) / w * dirQMax
	var q uint32
	switch {
	case !(f > 0):
		q = 0
	case f >= dirQMax:
		q = dirQMax
	default:
		q = uint32(f)
	}
	for q > 0 && qdecode(lo, hi, q) > x {
		q--
	}
	for q < dirQMax && qdecode(lo, hi, q+1) <= x {
		q++
	}
	return uint16(q)
}

func refQupper(x, lo, hi float64) uint16 {
	w := hi - lo
	if !(w > 0) {
		return 0
	}
	f := (x - lo) / w * dirQMax
	var q uint32
	switch {
	case !(f > 0):
		q = 0
	case f >= dirQMax:
		q = dirQMax
	default:
		q = uint32(f) + 1
	}
	for q < dirQMax && qdecode(lo, hi, q) < x {
		q++
	}
	for q > 0 && qdecode(lo, hi, q-1) >= x {
		q--
	}
	return uint16(q)
}

// TestGridExhaustive holds a grid's lower and upper to the division form at
// every one of the 2¹⁶ grid values q of a few ranges — at qdecode(q) and one
// ulp to either side, where the certified estimate is closest to being wrong
// and the nudge loops must take over.
func TestGridExhaustive(t *testing.T) {
	for _, r := range [][2]float64{{0, 1}, {-3.5, 1e6}, {1e9, 1e9 + 0.25}, {-1e-3, -2e-4}} {
		lo, hi := r[0], r[1]
		g := newGrid(lo, hi)
		for q := uint32(0); q <= dirQMax; q++ {
			c := qdecode(lo, hi, q)
			for _, x := range []float64{c, math.Nextafter(c, math.Inf(1)), math.Nextafter(c, math.Inf(-1))} {
				if got, want := g.lower(x), refQlower(x, lo, hi); got != want {
					t.Fatalf("lower(%v) on [%v, %v] = %d, division form %d", x, lo, hi, got, want)
				}
				if got, want := g.upper(x), refQupper(x, lo, hi); got != want {
					t.Fatalf("upper(%v) on [%v, %v] = %d, division form %d", x, lo, hi, got, want)
				}
			}
		}
	}
}

// TestGridMatchesDivisionForm holds qlower and qupper — and a grid reused
// across bounds, as the kernels use it — to the division form on
// random ranges and coordinates (inside, outside and on the range, and on
// grid points) and on the edge cases: NaN and ±Inf anywhere, a degenerate
// range, subnormal widths and offsets, and ranges far from zero.
func TestGridMatchesDivisionForm(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	sub := math.SmallestNonzeroFloat64
	ranges := [][2]float64{
		{0, 1}, {-1, 1}, {0, 0}, {5, 5}, {1, 0}, {0, sub}, {sub, 4 * sub}, {0, 1e-300},
		{-inf, 0}, {0, inf}, {-inf, inf}, {nan, 1}, {0, nan}, {1e15, 1e15 + 1}, {-1e308, 1e308},
		{0.1, 0.30000000000000004}, {-7.25, -7.125}, {1e-310, 2e-310},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		lo := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
		ranges = append(ranges, [2]float64{lo, lo + rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(12)-6))})
	}
	check := func(x, lo, hi float64) {
		t.Helper()
		g := newGrid(lo, hi)
		if got, want := g.lower(x), refQlower(x, lo, hi); got != want {
			t.Fatalf("lower(%v) on [%v, %v] = %d, division form %d", x, lo, hi, got, want)
		}
		if got, want := g.upper(x), refQupper(x, lo, hi); got != want {
			t.Fatalf("upper(%v) on [%v, %v] = %d, division form %d", x, lo, hi, got, want)
		}
		if qlower(x, lo, hi) != refQlower(x, lo, hi) || qupper(x, lo, hi) != refQupper(x, lo, hi) {
			t.Fatalf("qlower/qupper(%v) on [%v, %v] differ from the division form", x, lo, hi)
		}
	}
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		for _, q := range []uint32{0, 1, 2, 32767, 32768, dirQMax - 1, dirQMax} {
			x := qdecode(lo, hi, q)
			check(x, lo, hi)
			check(math.Nextafter(x, inf), lo, hi)
			check(math.Nextafter(x, -inf), lo, hi)
		}
		for _, x := range []float64{nan, inf, -inf, 0, sub, -sub, lo, hi, lo - 1, hi + 1} {
			check(x, lo, hi)
		}
		for i := 0; i < 40; i++ {
			check(lo+(hi-lo)*(rng.Float64()*1.2-0.1), lo, hi)
		}
	}
}
