package hilbert

import (
	"math"
	"math/rand"
	"testing"
)

// This file keeps Skilling's forward transform as it stood before the
// branch-free kernel — axesToTranspose and interleave, verbatim — as the
// reference every Hilbert key is compared against.

// referenceIndex is the index the original code computed for coordinates
// below 2^bits.
func referenceIndex(coords []uint32, bits int) uint64 {
	x := append([]uint32(nil), coords...)
	axesToTranspose(x, bits)
	return interleave(x, bits)
}

// axesToTranspose applies Skilling's in-place transformation from Cartesian
// coordinates to the transposed Hilbert representation.
func axesToTranspose(x []uint32, bits int) {
	n := len(x)
	m := uint32(1) << uint(bits-1)
	// Inverse undo of the excess work done by transposeToAxes.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// interleave packs the transposed representation into a single index, most
// significant bit of x[0] first.
func interleave(x []uint32, bits int) uint64 {
	n := len(x)
	var out uint64
	for b := bits - 1; b >= 0; b-- {
		for i := 0; i < n; i++ {
			out = (out << 1) | uint64((x[i]>>uint(b))&1)
		}
	}
	return out
}

// checkIndex compares the production kernel with the reference on one cell.
func checkIndex(t *testing.T, coords []uint32, bits int) {
	t.Helper()
	want := referenceIndex(coords, bits)
	if got := encode(append([]uint32(nil), coords...), bits); got != want {
		t.Fatalf("dims=%d bits=%d: index of %v is %d, reference %d", len(coords), bits, coords, got, want)
	}
}

// TestIndexMatchesReferenceExhaustive checks every cell of every curve up to
// 6 bits an axis in 1 to 3 dimensions.
func TestIndexMatchesReferenceExhaustive(t *testing.T) {
	for dims := 1; dims <= 3; dims++ {
		for bits := 1; bits <= 6; bits++ {
			coords := make([]uint32, dims)
			for cell := 0; cell < 1<<(dims*bits); cell++ {
				for d := range coords {
					coords[d] = uint32(cell>>(d*bits)) & (1<<bits - 1)
				}
				checkIndex(t, coords, bits)
			}
		}
	}
}

// TestIndexMatchesReferenceRandom covers every dimensionality and order the
// package accepts in 1 to 4 dimensions, including the extremes: all-zero and
// all-ones cells and the widest axes (32/31/21/15 bits).
func TestIndexMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for dims := 1; dims <= 4; dims++ {
		for bits := 1; bits <= MaxBitsPerDim && dims*bits <= MaxTotalBits; bits++ {
			mask := uint32(math.MaxUint32 >> (32 - bits))
			coords := make([]uint32, dims)
			for trial := 0; trial < 2000; trial++ {
				for d := range coords {
					switch trial {
					case 0:
						coords[d] = mask
					case 1:
						coords[d] = 0
					default:
						coords[d] = rng.Uint32() & mask
					}
				}
				checkIndex(t, coords, bits)
			}
		}
	}
}

func FuzzHilbertIndexMatchesReference(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), 2, 16)
	f.Add(uint32(12345), uint32(54321), uint32(7), uint32(9), 3, 21)
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(0), uint32(0), 2, 31)
	f.Add(uint32(math.MaxUint32), uint32(1), uint32(2), uint32(3), 1, 32)
	f.Add(uint32(0xbeef), uint32(0xcafe), uint32(0xf00d), uint32(0x1234), 4, 15)
	f.Fuzz(func(t *testing.T, a, b, c, d uint32, dims, bits int) {
		if dims < 1 || dims > 4 || bits < 1 || bits > MaxBitsPerDim || dims*bits > MaxTotalBits {
			return
		}
		mask := uint32(math.MaxUint32 >> (32 - bits))
		checkIndex(t, []uint32{a & mask, b & mask, c & mask, d & mask}[:dims], bits)
	})
}
