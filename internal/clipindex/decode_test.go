package clipindex

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
)

// sameTable compares two tables record by record, bit for bit (NaN and ±0
// included).
func sameTable(a, b Table) bool {
	if len(a) != len(b) {
		return false
	}
	for id, rec := range a {
		if other, ok := b[id]; !ok || !slices.EqualFunc(rec, other, sameBits) {
			return false
		}
	}
	return true
}

// clipped3D clips a 3-D tree over sliver objects and returns the index and a
// universe holding every clip point.
func clipped3D(t testing.TB, n int) (*Index, geom.Rect) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	tree := rtree.MustNew(rtree.Config{Dims: 3, MaxEntries: 16, MinEntries: 6, Variant: rtree.RRStar, HilbertBits: 12})
	if err := tree.BulkLoad(sliverItems(rng, 3, n)); err != nil {
		t.Fatal(err)
	}
	idx, err := New(tree, core.DefaultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	return idx, tree.CurrentVersion().Bounds()
}

// Decoding a clip section allocates one record per node with clip points and
// a few things besides — nothing per clip point — in both formats.
func TestOpenAllocsPerClippedNode(t *testing.T) {
	idx, universe := clipped3D(t, 3000)
	nodes, points, _ := idx.Snap().ClipStats()
	if points < 3*nodes {
		t.Fatalf("%d clip points on %d nodes: too few per node to tell records from points", points, nodes)
	}
	for _, u := range []*geom.Rect{nil, &universe} {
		buf := idx.EncodeClips(3, u)
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := DecodeClips(buf, u); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("v2=%v: %d records of %d clip points decode in %.0f allocations", u != nil, nodes, points, allocs)
		if allocs > float64(nodes+16) {
			t.Errorf("v2=%v: decoding %d records of %d clip points allocates %.0f times, want at most %d", u != nil, nodes, points, allocs, nodes+16)
		}
	}
}

// FuzzDecodeClips feeds raw bytes to the clip-section decoder, as format 1
// and as format 2 over a universe [lo, hi] in every dimension. It must never
// panic, and a section it accepts, encoded again and decoded again, must give
// back bit-identical records.
func FuzzDecodeClips(f *testing.F) {
	idx, universe := clipped3D(f, 60)
	f.Add(idx.EncodeClips(3, nil), universe.Lo[0], universe.Hi[0])
	f.Add(idx.EncodeClips(3, &universe), universe.Lo[0], universe.Hi[0])
	small := geom.R(0, 0, 100, 100)
	raw := tableOf(points{
		4: {{Coord: geom.Pt(-3, 50), Mask: 0}, {Coord: geom.Pt(25, 75), Mask: 1}},
		9: {{Coord: geom.Pt(math.NaN(), 1), Mask: 2}, {Coord: geom.Pt(0, 100), Mask: 3}},
	}, 2)
	f.Add(raw.EncodeClips(2, nil), 0.0, 100.0)
	f.Add(raw.EncodeClips(2, &small), 0.0, 100.0)
	// A grid finer than the float64 spacing near 1e15, and a universe too
	// wide for a grid at all.
	fine := geom.R(1e15, 1e15, 1e15+1, 1e15+1)
	f.Add(tableOf(points{2: {{Coord: geom.Pt(1e15+0.3, 1e15+0.9), Mask: 1}, {Coord: geom.Pt(1e15+1, 1e15), Mask: 2}}}, 2).EncodeClips(2, &fine), 1e15, 1e15+1)
	f.Add(raw.EncodeClips(2, &small), -1e308, 1e308)
	f.Fuzz(func(t *testing.T, buf []byte, lo, hi float64) {
		roundTrip := func(u *geom.Rect) {
			table, dims, err := DecodeClips(buf, u)
			if err != nil {
				return
			}
			enc := table.EncodeClips(dims, u)
			if len(table) == 0 {
				if enc != nil {
					t.Fatalf("an empty table encodes to %d bytes", len(enc))
				}
				return
			}
			again, dims2, err := DecodeClips(enc, u)
			if err != nil || dims2 != dims {
				t.Fatalf("v2=%v: re-encoded section does not decode: dims %d → %d, %v", u != nil, dims, dims2, err)
			}
			if !sameTable(table, again) {
				t.Fatalf("v2=%v: decode → encode → decode changed the records", u != nil)
			}
		}
		roundTrip(nil)
		dims := 1
		if len(buf) >= 4 {
			dims = int(min(binary.LittleEndian.Uint32(buf), geom.MaxDims+1))
		}
		u := geom.Rect{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
		for d := range dims {
			u.Lo[d], u.Hi[d] = lo, hi
		}
		roundTrip(&u)
	})
}
