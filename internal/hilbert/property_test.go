package hilbert

import (
	"math"
	"math/rand"
	"testing"

	"cbb/internal/geom"
)

// Property tests for the curve: Encode/Decode inversion across every
// (dims, bits) combination the package accepts, adjacency (unit curve steps
// move exactly one cell along one axis), and the boundary clamping that
// shard routing depends on — points on the universe faces, outside it, and
// with non-finite coordinates must all map into the valid index range.

func TestEncodeDecodeRoundTripAllDims(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for dims := 1; dims <= 6; dims++ {
		maxBits := MaxTotalBits / dims
		if maxBits > MaxBitsPerDim {
			maxBits = MaxBitsPerDim
		}
		for bits := 1; bits <= maxBits; bits++ {
			mask := uint64(1)<<uint(bits) - 1
			for trial := 0; trial < 50; trial++ {
				coords := make([]uint32, dims)
				for d := range coords {
					coords[d] = uint32(rng.Uint64() & mask)
				}
				idx := Encode(coords, bits)
				if max := uint64(1)<<uint(dims*bits) - 1; idx > max {
					t.Fatalf("dims=%d bits=%d: Encode(%v) = %d exceeds max %d", dims, bits, coords, idx, max)
				}
				back := Decode(idx, dims, bits)
				for d := range coords {
					if back[d] != coords[d] {
						t.Fatalf("dims=%d bits=%d: round trip %v -> %d -> %v", dims, bits, coords, idx, back)
					}
				}
			}
		}
	}
}

func TestDecodeEncodeRoundTripAllIndices(t *testing.T) {
	// Small enough orders to enumerate the whole curve: every index must
	// decode to coordinates that encode back to it (bijectivity).
	cases := []struct{ dims, bits int }{{1, 6}, {2, 4}, {3, 3}, {4, 2}, {5, 2}}
	for _, tc := range cases {
		total := uint64(1) << uint(tc.dims*tc.bits)
		for idx := uint64(0); idx < total; idx++ {
			coords := Decode(idx, tc.dims, tc.bits)
			if got := Encode(coords, tc.bits); got != idx {
				t.Fatalf("dims=%d bits=%d: Decode(%d) = %v encodes to %d", tc.dims, tc.bits, idx, coords, got)
			}
		}
	}
}

func TestCurveAdjacencyAllDims(t *testing.T) {
	// Defining property of the Hilbert curve: consecutive indices differ in
	// exactly one coordinate, by exactly one cell.
	cases := []struct{ dims, bits int }{{1, 8}, {2, 5}, {3, 3}, {4, 2}}
	for _, tc := range cases {
		total := uint64(1) << uint(tc.dims*tc.bits)
		prev := Decode(0, tc.dims, tc.bits)
		for idx := uint64(1); idx < total; idx++ {
			cur := Decode(idx, tc.dims, tc.bits)
			dist := 0
			for d := range cur {
				diff := int64(cur[d]) - int64(prev[d])
				if diff < 0 {
					diff = -diff
				}
				dist += int(diff)
			}
			if dist != 1 {
				t.Fatalf("dims=%d bits=%d: step %d -> %d moves L1 distance %d (prev=%v cur=%v)",
					tc.dims, tc.bits, idx-1, idx, dist, prev, cur)
			}
			prev = cur
		}
	}
}

func TestEncodeMasksWideCoordinates(t *testing.T) {
	// Coordinates wider than the curve order must not leak into the index.
	for bits := 1; bits < 32; bits++ {
		mask := uint32(1)<<uint(bits) - 1
		wide := []uint32{math.MaxUint32, mask | 1<<uint(bits)}
		masked := []uint32{math.MaxUint32 & mask, mask & mask}
		if got, want := Encode(wide, bits), Encode(masked, bits); got != want {
			t.Fatalf("bits=%d: Encode with wide coords = %d, want %d", bits, got, want)
		}
		if idx := Encode(wide, bits); idx > uint64(1)<<uint(2*bits)-1 {
			t.Fatalf("bits=%d: Encode with wide coords overflows index range: %d", bits, idx)
		}
	}
}

func TestNewRejectsBitsAbove32(t *testing.T) {
	uni := geom.Rect{Lo: geom.Pt(0), Hi: geom.Pt(1)}
	if _, err := New(uni, 33); err == nil {
		t.Fatal("New accepted 33 bits for one dimension; uint32 cells cannot hold that")
	}
	if _, err := New(uni, 32); err != nil {
		t.Fatalf("New rejected 32 bits for one dimension: %v", err)
	}
}

func TestCurveIndexBoundaryClamping(t *testing.T) {
	uni := geom.Rect{Lo: geom.Pt(-10, -10), Hi: geom.Pt(10, 10)}
	for _, bits := range []int{1, 4, 16, 31} {
		c, err := New(uni, bits)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		max := c.MaxIndex()
		pts := []geom.Point{
			geom.Pt(-10, -10), geom.Pt(10, 10), geom.Pt(10, -10), geom.Pt(-10, 10),
			geom.Pt(0, 10), geom.Pt(10, 0),
			geom.Pt(-1e30, 0), geom.Pt(1e30, 1e30), geom.Pt(0, -1e30),
			geom.Pt(math.Inf(1), math.Inf(-1)), geom.Pt(math.NaN(), 5), geom.Pt(math.NaN(), math.NaN()),
		}
		for _, p := range pts {
			idx := c.Index(p)
			if idx > max {
				t.Fatalf("bits=%d: Index(%v) = %d exceeds MaxIndex %d", bits, p, idx, max)
			}
		}
		// Clamping is projection onto the universe: an outside point and its
		// projection must land on the same cell.
		if got, want := c.Index(geom.Pt(1e30, 3)), c.Index(geom.Pt(10, 3)); got != want {
			t.Fatalf("bits=%d: outside point %d != projected point %d", bits, got, want)
		}
		if got, want := c.Index(geom.Pt(math.Inf(-1), math.Inf(1))), c.Index(geom.Pt(-10, 10)); got != want {
			t.Fatalf("bits=%d: infinite point %d != corner %d", bits, got, want)
		}
	}
}

func TestCurveIndexMonotoneOnAxis(t *testing.T) {
	// Along one axis with the other fixed at Lo, the first coordinate's cell
	// is non-decreasing in the point's position; combined with round-trip
	// exactness this pins the cell quantisation (locality at cell level).
	uni := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(1, 1)}
	c, err := New(uni, 8)
	if err != nil {
		t.Fatal(err)
	}
	prev := uint32(0)
	for i := 0; i <= 1000; i++ {
		p := geom.Pt(float64(i)/1000, 0)
		cell := Decode(c.Index(p), 2, 8)[0]
		if cell < prev {
			t.Fatalf("cell coordinate decreased along the axis: %d after %d at x=%v", cell, prev, p[0])
		}
		prev = cell
	}
	if prev != uint32(1)<<8-1 {
		t.Fatalf("x=Hi maps to cell %d, want %d", prev, uint32(1)<<8-1)
	}
}

// Encode converts discrete coordinates (each < 2^bits) into a Hilbert index
// through the production kernel. Coordinates wider than bits are masked down
// to their low bits so that the result always lies in [0, 2^(dims*bits)). The
// slice is not modified.
func Encode(coords []uint32, bits int) uint64 {
	n := len(coords)
	x := make([]uint32, n)
	copy(x, coords)
	if bits < 32 {
		mask := uint32(1)<<uint(bits) - 1
		for i := range x {
			x[i] &= mask
		}
	}
	return encode(x, bits)
}

// Decode converts a Hilbert index back into discrete coordinates, the exact
// inverse of Skilling's transform.
func Decode(index uint64, dims, bits int) []uint32 {
	x := deinterleave(index, dims, bits)
	transposeToAxes(x, bits)
	return x
}

// transposeToAxes is the inverse of axesToTranspose.
func transposeToAxes(x []uint32, bits int) {
	n := len(x)
	m := uint32(2) << uint(bits-1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// deinterleave is the inverse of interleave.
func deinterleave(index uint64, dims, bits int) []uint32 {
	x := make([]uint32, dims)
	pos := dims*bits - 1
	for b := bits - 1; b >= 0; b-- {
		for i := 0; i < dims; i++ {
			x[i] |= uint32((index>>uint(pos))&1) << uint(b)
			pos--
		}
	}
	return x
}

func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), 3, 8)
	f.Add(uint32(255), uint32(17), uint32(1<<20), 2, 16)
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(math.MaxUint32), 1, 32)
	f.Fuzz(func(t *testing.T, a, b, c uint32, dims, bits int) {
		if dims < 1 || dims > 3 {
			return
		}
		if bits < 1 || bits > MaxBitsPerDim || dims*bits > MaxTotalBits {
			return
		}
		mask := uint32(math.MaxUint32)
		if bits < 32 {
			mask = uint32(1)<<uint(bits) - 1
		}
		coords := []uint32{a & mask, b & mask, c & mask}[:dims]
		idx := Encode(coords, bits)
		if dims*bits < 64 && idx > uint64(1)<<uint(dims*bits)-1 {
			t.Fatalf("Encode(%v, %d) = %d out of range", coords, bits, idx)
		}
		back := Decode(idx, dims, bits)
		for d := range coords {
			if back[d] != coords[d] {
				t.Fatalf("round trip %v -> %d -> %v (dims=%d bits=%d)", coords, idx, back, dims, bits)
			}
		}
	})
}
