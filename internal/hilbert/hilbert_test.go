package hilbert

import (
	"math"
	"math/rand"
	"testing"

	"cbb/internal/geom"
)

func TestEncodeDecodeRoundTrip2D(t *testing.T) {
	bits := 4
	seen := make(map[uint64]bool)
	for x := uint32(0); x < 16; x++ {
		for y := uint32(0); y < 16; y++ {
			idx := Encode([]uint32{x, y}, bits)
			if idx >= 256 {
				t.Fatalf("index %d out of range for order-4 2d curve", idx)
			}
			if seen[idx] {
				t.Fatalf("duplicate index %d for (%d,%d)", idx, x, y)
			}
			seen[idx] = true
			back := Decode(idx, 2, bits)
			if back[0] != x || back[1] != y {
				t.Fatalf("round trip failed: (%d,%d) -> %d -> (%d,%d)", x, y, idx, back[0], back[1])
			}
		}
	}
	if len(seen) != 256 {
		t.Fatalf("curve is not a bijection: %d distinct indices", len(seen))
	}
}

func TestEncodeDecodeRoundTrip3D(t *testing.T) {
	bits := 3
	seen := make(map[uint64]bool)
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			for z := uint32(0); z < 8; z++ {
				idx := Encode([]uint32{x, y, z}, bits)
				if seen[idx] {
					t.Fatalf("duplicate index %d", idx)
				}
				seen[idx] = true
				back := Decode(idx, 3, bits)
				if back[0] != x || back[1] != y || back[2] != z {
					t.Fatalf("round trip failed for (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
	if len(seen) != 512 {
		t.Fatalf("3d curve not a bijection: %d indices", len(seen))
	}
}

// The defining property of the Hilbert curve: consecutive indices map to
// cells that are adjacent in space (L1 distance exactly 1).
func TestCurveContinuity(t *testing.T) {
	bits := 5
	dims := 2
	total := uint64(1) << uint(dims*bits)
	prev := Decode(0, dims, bits)
	for i := uint64(1); i < total; i++ {
		cur := Decode(i, dims, bits)
		var dist uint32
		for d := 0; d < dims; d++ {
			if cur[d] > prev[d] {
				dist += cur[d] - prev[d]
			} else {
				dist += prev[d] - cur[d]
			}
		}
		if dist != 1 {
			t.Fatalf("indices %d and %d map to non-adjacent cells %v %v", i-1, i, prev, cur)
		}
		prev = cur
	}
}

func TestCurveContinuity3D(t *testing.T) {
	bits := 3
	dims := 3
	total := uint64(1) << uint(dims*bits)
	prev := Decode(0, dims, bits)
	for i := uint64(1); i < total; i++ {
		cur := Decode(i, dims, bits)
		var dist uint32
		for d := 0; d < dims; d++ {
			if cur[d] > prev[d] {
				dist += cur[d] - prev[d]
			} else {
				dist += prev[d] - cur[d]
			}
		}
		if dist != 1 {
			t.Fatalf("3d continuity broken between %d and %d: %v -> %v", i-1, i, prev, cur)
		}
		prev = cur
	}
}

func TestNewCurveValidation(t *testing.T) {
	uni := geom.R(0, 0, 100, 100)
	if _, err := New(uni, 16); err != nil {
		t.Fatalf("valid curve rejected: %v", err)
	}
	if _, err := New(uni, 0); err == nil {
		t.Error("0 bits must be rejected")
	}
	if _, err := New(uni, 40); err == nil {
		t.Error("2*40 bits exceeds 63 and must be rejected")
	}
	if _, err := New(geom.Rect{}, 8); err == nil {
		t.Error("invalid universe must be rejected")
	}
	uni3 := geom.R(0, 0, 0, 1, 1, 1)
	if _, err := New(uni3, 21); err != nil {
		t.Errorf("3*21 = 63 bits should be accepted: %v", err)
	}
	if _, err := New(uni3, 22); err == nil {
		t.Error("3*22 = 66 bits must be rejected")
	}
}

func TestCurveIndexClamping(t *testing.T) {
	uni := geom.R(0, 0, 100, 100)
	c, err := New(uni, 10)
	if err != nil {
		t.Fatal(err)
	}
	inside := c.Index(geom.Pt(50, 50))
	outside := c.Index(geom.Pt(500, 50))
	edge := c.Index(geom.Pt(100, 50))
	if outside != edge {
		t.Errorf("out-of-universe points should clamp to the boundary: %d vs %d", outside, edge)
	}
	_ = inside
	if c.Dims() != 2 {
		t.Error("accessors wrong")
	}
}

func TestCurveDegenerateUniverse(t *testing.T) {
	// A universe that is flat in one dimension must not divide by zero.
	uni := geom.R(0, 5, 100, 5)
	c, err := New(uni, 8)
	if err != nil {
		t.Fatal(err)
	}
	a := c.Index(geom.Pt(10, 5))
	b := c.Index(geom.Pt(90, 5))
	if a == b {
		t.Error("distinct x positions should get distinct indices even in a flat universe")
	}
}

// Locality: points that are close in space should, on average, be much
// closer in Hilbert order than random pairs. This is a statistical sanity
// check of the property the HR-tree relies on.
func TestCurveLocality(t *testing.T) {
	uni := geom.R(0, 0, 1000, 1000)
	c, err := New(uni, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	var nearSum, farSum float64
	n := 2000
	for i := 0; i < n; i++ {
		p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		q := geom.Pt(p[0]+rng.Float64()*5, p[1]+rng.Float64()*5) // nearby point
		r := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)     // random point
		ip, iq, ir := c.Index(p), c.Index(q), c.Index(r)
		nearSum += math.Abs(float64(ip) - float64(iq))
		farSum += math.Abs(float64(ip) - float64(ir))
	}
	if nearSum*10 > farSum {
		t.Errorf("poor locality: near pairs avg %g, random pairs avg %g", nearSum/float64(n), farSum/float64(n))
	}
}

func TestIndexRect(t *testing.T) {
	uni := geom.R(0, 0, 100, 100)
	c, _ := New(uni, 10)
	r := geom.R(10, 10, 20, 20)
	if c.IndexRect(r) != c.Index(geom.Pt(15, 15)) {
		t.Error("IndexRect should index the rectangle centre")
	}
}

func BenchmarkEncode2D(b *testing.B) {
	coords := []uint32{12345, 54321}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(coords, 16)
	}
}

func BenchmarkCurveIndex2D(b *testing.B) {
	uni := geom.R(0, 0, 1000, 1000)
	c, _ := New(uni, 16)
	p := geom.Pt(123.4, 567.8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Index(p)
	}
}

func BenchmarkCurveIndex3D(b *testing.B) {
	uni := geom.R(0, 0, 0, 1000, 1000, 1000)
	c, _ := New(uni, 16)
	p := geom.Pt(123.4, 567.8, 910.11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Index(p)
	}
}
