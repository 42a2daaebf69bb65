package clipindex

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
)

func randClipTableV2(rng *rand.Rand, dims, nodes, perNode int, universe geom.Rect) Table {
	t := make(Table, nodes)
	for i := 0; i < nodes; i++ {
		clips := make([]core.ClipPoint, perNode)
		for j := range clips {
			coord := make(geom.Point, dims)
			for d := 0; d < dims; d++ {
				w := universe.Hi[d] - universe.Lo[d]
				coord[d] = universe.Lo[d] + rng.Float64()*w
			}
			clips[j] = core.ClipPoint{Coord: coord, Mask: geom.Corner(rng.Intn(1 << dims))}
		}
		t[rtree.NodeID(i+1)] = clips
	}
	return t
}

func TestClipTableV2RoundTripConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, dims := range []int{1, 2, 3} {
		universe := geom.Rect{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
		for d := 0; d < dims; d++ {
			universe.Lo[d], universe.Hi[d] = 0, 10000
		}
		table := randClipTableV2(rng, dims, 20, 6, universe)
		buf := EncodeTableV2(table, dims, universe)
		if !bytes.Equal(buf, EncodeTableV2(table, dims, universe)) {
			t.Fatalf("dims=%d encoding is not deterministic", dims)
		}
		back, gotDims, err := DecodeTableV2(buf, universe)
		if err != nil {
			t.Fatal(err)
		}
		if gotDims != dims || len(back) != len(table) {
			t.Fatalf("dims=%d decoded shape mismatch", dims)
		}
		// A clip point certifies the region toward its corner as dead. The
		// grid rounds each coordinate toward that corner, so the decoded
		// point must sit corner-ward of the original in every dimension —
		// the certified-dead region can only shrink.
		step := 10000.0 / float64(math.MaxUint32)
		for id, clips := range table {
			dec := back[id]
			if len(dec) != len(clips) {
				t.Fatalf("node %d clip count changed", id)
			}
			for j := range clips {
				if dec[j].Mask != clips[j].Mask {
					t.Fatalf("node %d point %d mask changed", id, j)
				}
				for d := 0; d < dims; d++ {
					orig, got := clips[j].Coord[d], dec[j].Coord[d]
					if clips[j].Mask.Bit(d) {
						if got < orig {
							t.Fatalf("node %d point %d dim %d rounded away from its Hi corner: %v < %v", id, j, d, got, orig)
						}
					} else if got > orig {
						t.Fatalf("node %d point %d dim %d rounded away from its Lo corner: %v > %v", id, j, d, got, orig)
					}
					if math.Abs(got-orig) > 2*step {
						t.Fatalf("node %d point %d dim %d moved %v, beyond the grid step", id, j, d, math.Abs(got-orig))
					}
					if got < universe.Lo[d] || got > universe.Hi[d] {
						t.Fatalf("node %d point %d dim %d decoded outside the universe", id, j, d)
					}
				}
			}
		}
	}
}

func TestClipTableV2GridStability(t *testing.T) {
	// Decoded coordinates lie on the grid, so encode(decode(x)) must be the
	// identity — the property that makes v2->v2 compaction byte-stable.
	rng := rand.New(rand.NewSource(52))
	universe := geom.R(0, 0, 10000, 10000)
	table := randClipTableV2(rng, 2, 15, 5, universe)
	buf := EncodeTableV2(table, 2, universe)
	once, _, err := DecodeTableV2(buf, universe)
	if err != nil {
		t.Fatal(err)
	}
	buf2 := EncodeTableV2(once, 2, universe)
	if !bytes.Equal(buf, buf2) {
		t.Fatal("re-encoding a decoded table changed the bytes")
	}
}

func TestClipTableV2RawFallback(t *testing.T) {
	universe := geom.R(0, 0, 100, 100)
	table := Table{
		5: []core.ClipPoint{
			{Coord: geom.Pt(-3, 50), Mask: 0},               // below the universe on d0
			{Coord: geom.Pt(50, 120), Mask: geom.Corner(2)}, // above it on d1
			{Coord: geom.Pt(25, 75), Mask: geom.Corner(1)},  // in range: quantised
		},
	}
	buf := EncodeTableV2(table, 2, universe)
	wantLen := 8 + 8 + 2*ClipPointBytes(2) + ClipPointBytesV2(2)
	if len(buf) != wantLen {
		t.Fatalf("encoded %d bytes, want %d (two raw + one quantised)", len(buf), wantLen)
	}
	back, _, err := DecodeTableV2(buf, universe)
	if err != nil {
		t.Fatal(err)
	}
	// Raw-fallback points survive bit-identically even though they are
	// outside the grid's reach.
	for j := 0; j < 2; j++ {
		for d := 0; d < 2; d++ {
			if back[5][j].Coord[d] != table[5][j].Coord[d] {
				t.Fatalf("raw point %d dim %d changed: %v vs %v", j, d, back[5][j].Coord[d], table[5][j].Coord[d])
			}
		}
		if back[5][j].Mask != table[5][j].Mask {
			t.Fatalf("raw point %d mask changed", j)
		}
	}
	// Non-finite coordinates must also take the raw path, not panic.
	nan := Table{1: []core.ClipPoint{{Coord: geom.Pt(math.NaN(), 1), Mask: 0}}}
	nbuf := EncodeTableV2(nan, 2, universe)
	nback, _, err := DecodeTableV2(nbuf, universe)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(nback[1][0].Coord[0]) {
		t.Error("NaN coordinate not preserved through the raw path")
	}
}

func TestClipTableV2UniverseEndpointsExact(t *testing.T) {
	universe := geom.R(0, 0, 100, 100)
	table := Table{
		2: []core.ClipPoint{
			{Coord: geom.Pt(0, 100), Mask: geom.Corner(2)},
			{Coord: geom.Pt(100, 0), Mask: geom.Corner(1)},
		},
	}
	back, _, err := DecodeTableV2(EncodeTableV2(table, 2, universe), universe)
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range table[2] {
		for d := 0; d < 2; d++ {
			if back[2][j].Coord[d] != c.Coord[d] {
				t.Errorf("universe endpoint point %d dim %d not exact: %v vs %v", j, d, back[2][j].Coord[d], c.Coord[d])
			}
		}
	}
}

func TestDecodeTableV2Errors(t *testing.T) {
	universe := geom.R(0, 0, 100, 100)
	if _, _, err := DecodeTableV2([]byte{1, 2, 3}, universe); err == nil {
		t.Error("short buffer must fail")
	}
	table := Table{3: []core.ClipPoint{{Coord: geom.Pt(10, 20), Mask: 1}}}
	buf := EncodeTableV2(table, 2, universe)
	for _, cut := range []int{9, 13, len(buf) - 1} {
		if _, _, err := DecodeTableV2(buf[:cut], universe); err == nil {
			t.Errorf("truncation at %d must fail", cut)
		}
	}
	flipped := geom.Rect{Lo: geom.Pt(0, 100), Hi: geom.Pt(100, 0)}
	if _, _, err := DecodeTableV2(buf, flipped); err == nil {
		t.Error("invalid universe must fail")
	}
	if _, _, err := DecodeTableV2(buf, geom.Rect{Lo: geom.Pt(0), Hi: geom.Pt(100)}); err == nil {
		t.Error("universe dimensionality mismatch must fail")
	}
	bad := append([]byte(nil), buf...)
	bad[0] = 77 // implausible dims
	if _, _, err := DecodeTableV2(bad, universe); err == nil {
		t.Error("implausible dimensionality must fail")
	}
}
