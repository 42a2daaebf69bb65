package clipindex

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"testing"

	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// An index encodes its clip section straight from its records; the bytes are
// those of encoding the materialised table, in both layouts, for a fresh
// build and after updates, and an empty index has no section.
func TestEncodeClipsMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tree, _ := buildClusteredTree(t, rng, rtree.RRStar, 1500)
	idx, err := New(tree, core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	universe := geom.R(-10, -10, 1100, 1100)
	check := func(when string) {
		t.Helper()
		table := idx.Table()
		if len(table) == 0 {
			t.Fatalf("%s: no clipped node", when)
		}
		if got, want := idx.EncodeClips(2, nil), EncodeTable(table, 2); !bytes.Equal(got, want) {
			t.Fatalf("%s: format-1 section from the records differs from the table's (%d vs %d bytes)", when, len(got), len(want))
		}
		if got, want := idx.EncodeClips(2, &universe), EncodeTableV2(table, 2, universe); !bytes.Equal(got, want) {
			t.Fatalf("%s: format-2 section from the records differs from the table's (%d vs %d bytes)", when, len(got), len(want))
		}
		if got := idx.AuxBytes(); got != TableBytes(table, 2) {
			t.Fatalf("%s: AuxBytes %d, TableBytes of the table %d", when, got, TableBytes(table, 2))
		}
	}
	check("after the build")
	for i := 0; i < 300; i++ {
		if _, err := idx.Insert(randRect(rng, 2, 1000, 30), rtree.ObjectID(10000+i)); err != nil {
			t.Fatal(err)
		}
	}
	check("after inserts")

	empty, err := New(rtree.MustNew(smallConfig(2, rtree.RRStar)), core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if buf := empty.EncodeClips(2, nil); buf != nil {
		t.Fatalf("an index without clip points encodes a %d-byte section", len(buf))
	}
	if buf := (Table{}).EncodeClips(2, nil); buf != nil {
		t.Fatalf("an empty table encodes a %d-byte section", len(buf))
	}
}

// Restore followed by Table is the identity on a decoded table — nodes, order
// of clip points, masks, coordinate bits — and a table that names a node the
// tree does not have is rejected as corrupt rather than kept, served and
// saved again.
func TestRestoreTableIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tree, _ := buildClusteredTree(t, rng, rtree.RRStar, 1200)
	built, err := New(tree, core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := DecodeTable(EncodeTable(built.Table(), 2))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Restore(tree, core.DefaultParams(2), table)
	if err != nil {
		t.Fatal(err)
	}
	back := idx.Table()
	if len(back) != len(table) {
		t.Fatalf("restored table has %d nodes, want %d", len(back), len(table))
	}
	for id, clips := range table {
		if !sameClipBits(back[id], clips) || !sameClipBits(idx.Snap().Clips(id), clips) {
			t.Fatalf("node %d: restored %v (published %v), want %v", id, back[id], idx.Snap().Clips(id), clips)
		}
	}
	if !bytes.Equal(idx.EncodeClips(2, nil), EncodeTable(table, 2)) {
		t.Fatal("restored records do not encode to the table's bytes")
	}
	// Queries over the restored index still agree with the plain tree.
	for i := 0; i < 100; i++ {
		q := randRect(rng, 2, 900, 150)
		if got, want := countClipped(idx, q), tree.Count(q); got != want {
			t.Fatalf("query %v: %d results, plain tree has %d", q, got, want)
		}
	}
	dir, leaf := tree.NodeCount()
	for _, id := range []rtree.NodeID{rtree.NodeID(dir + leaf + 5), 1 << 21, 1<<31 - 1} {
		bad := maps.Clone(table)
		bad[id] = []core.ClipPoint{{Coord: geom.Point{1, -0.5}, Mask: geom.Corner(1)}}
		if _, err := Restore(tree, core.DefaultParams(2), bad); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("a table naming missing node %d: Restore returned %v, want storage.ErrCorrupt", id, err)
		}
	}
}

// Rollback hands the writer the published directory back, records and all:
// nothing is rebuilt, every record is the published one, and a later
// mutation leaves the published snapshot alone.
func TestRollbackRestoresPublishedRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tree, _ := buildClusteredTree(t, rng, rtree.RRStar, 1000)
	idx, err := New(tree, core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	published := idx.Snap()
	want := idx.EncodeClips(2, nil)
	if err := idx.Begin(); err != nil {
		t.Fatal(err)
	}
	items := make([]rtree.Item, 400)
	for i := range items {
		items[i] = rtree.Item{Object: rtree.ObjectID(5000 + i), Rect: randRect(rng, 2, 1000, 30)}
	}
	if _, err := idx.InsertItems(items); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(idx.EncodeClips(2, nil), want) {
		t.Fatal("the batch changed no clip point; the test is vacuous")
	}
	idx.Rollback()
	if idx.Snap() != published {
		t.Fatal("Rollback published something")
	}
	if !bytes.Equal(idx.EncodeClips(2, nil), want) {
		t.Fatal("clip points after Rollback differ from those before Begin")
	}
	if err := idx.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Insert(randRect(rng, 2, 1000, 30), 9999); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSnap(published), want) {
		t.Fatal("the published snapshot changed under a later mutation")
	}
}

// encodeSnap encodes a snapshot's records like Index.EncodeClips does the
// writer's.
func encodeSnap(s *Snap) []byte {
	nodes, points, _ := s.ClipStats()
	return encodeRecords(2, nil, nodes, points, s.v.Records())
}
