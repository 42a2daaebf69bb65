package clipindex

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
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
// of clip points, masks, coordinate bits — and ids beyond the dense range take
// the bounded path: they are kept, served and encoded, and the dense directory
// does not grow to reach them.
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
	far := []rtree.NodeID{maxDenseClipID, maxDenseClipID + 7, 1<<31 - 1}
	for i, id := range far {
		table[id] = []core.ClipPoint{{Coord: geom.Point{float64(i), -0.5}, Mask: geom.Corner(i)}}
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
	if n := len(idx.store.Dense); n > maxDenseClipID || len(idx.store.Spill) != len(far) {
		t.Fatalf("dense directory has %d slots and the spill map %d entries for %d far ids", n, len(idx.store.Spill), len(far))
	}
	if !bytes.Equal(idx.EncodeClips(2, nil), EncodeTable(table, 2)) {
		t.Fatal("records with spilled ids do not encode to the table's bytes")
	}
	idx.setClips(far[0], nil)
	if idx.Snap().Record(far[0]) == nil || idx.store.Of(far[0]) != nil || len(idx.store.Spill) != len(far)-1 {
		t.Fatal("removing a spilled record must leave the published snapshot alone and shrink the writer's map")
	}
	// Queries over the restored index still agree with the plain tree.
	for i := 0; i < 100; i++ {
		q := randRect(rng, 2, 900, 150)
		if got, want := idx.Count(q), tree.Count(q); got != want {
			t.Fatalf("query %v: %d results, plain tree has %d", q, got, want)
		}
	}
}

// Rollback hands the writer the published directory back: nothing is rebuilt,
// every record is the published one, and the next mutation detaches again.
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
	if err := idx.InsertItems(items); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(idx.EncodeClips(2, nil), want) {
		t.Fatal("the batch changed no clip point; the test is vacuous")
	}
	idx.Rollback()
	if idx.Snap() != published {
		t.Fatal("Rollback published something")
	}
	if unsafe.SliceData(idx.store.Dense) != unsafe.SliceData(published.recs.Dense) || !idx.storeShared {
		t.Fatal("Rollback must take the published directory back, shared")
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
	if unsafe.SliceData(idx.store.Dense) == unsafe.SliceData(published.recs.Dense) {
		t.Fatal("a mutation after Rollback wrote into the published directory")
	}
	if !bytes.Equal(encodeSnap(published), want) {
		t.Fatal("the published snapshot changed under a later mutation")
	}
}

// encodeSnap encodes a snapshot's records like Index.EncodeClips does the
// writer's.
func encodeSnap(s *Snap) []byte {
	x := &Index{tree: s.v.Tree(), store: s.recs}
	return x.EncodeClips(2, nil)
}
