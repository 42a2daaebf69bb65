package clipindex

import (
	"bytes"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
)

// An index encodes its clip section straight from the tree's directory; the
// bytes are those of encoding a Table of the same records, in both layouts,
// for a fresh build and after updates, and an empty index has no section.
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
		table := records(idx)
		if len(table) == 0 {
			t.Fatalf("%s: no clipped node", when)
		}
		if got, want := idx.EncodeClips(2, nil), table.EncodeClips(2, nil); !bytes.Equal(got, want) {
			t.Fatalf("%s: format-1 section from the directory differs from the table's (%d vs %d bytes)", when, len(got), len(want))
		}
		if got, want := idx.EncodeClips(2, &universe), table.EncodeClips(2, &universe); !bytes.Equal(got, want) {
			t.Fatalf("%s: format-2 section from the directory differs from the table's (%d vs %d bytes)", when, len(got), len(want))
		}
		if got, want := idx.AuxBytes(), len(table.EncodeClips(2, nil)); got != want {
			t.Fatalf("%s: AuxBytes %d, the table encodes to %d", when, got, want)
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

// Restore over a tree that holds a decoded table's records is the identity —
// nodes, order of clip points, masks, coordinate bits — and installs
// nothing: a table that is not exactly the tree's records (one naming a node
// the tree lacks, one missing a record, one whose record differs in a single
// bit) is an error, and the tree keeps its own records.
func TestRestoreTableIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tree, _ := buildClusteredTree(t, rng, rtree.RRStar, 1200)
	built, err := New(tree, core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := DecodeClips(built.EncodeClips(2, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Restore(tree, core.DefaultParams(2), table)
	if err != nil {
		t.Fatal(err)
	}
	if back := records(idx); !reflect.DeepEqual(back, table) {
		t.Fatalf("restored index holds %d records, the table %d", len(back), len(table))
	}
	for id, rec := range table {
		if !sameClipBits(idx.Snap().Clips(id), rec.Points(2)) {
			t.Fatalf("node %d: published %v, want %v", id, idx.Snap().Clips(id), rec.Points(2))
		}
	}
	if !bytes.Equal(idx.EncodeClips(2, nil), table.EncodeClips(2, nil)) {
		t.Fatal("restored records do not encode to the table's bytes")
	}
	// Queries over the restored index still agree with the plain tree.
	for i := 0; i < 100; i++ {
		q := randRect(rng, 2, 900, 150)
		if got, want := countClipped(idx, q), tree.Count(q); got != want {
			t.Fatalf("query %v: %d results, plain tree has %d", q, got, want)
		}
	}
	s := tree.Stats()
	dir, leaf := s.DirNodes, s.LeafNodes
	var bads []Table
	for _, id := range []rtree.NodeID{rtree.NodeID(dir + leaf + 5), 1 << 21, 1<<31 - 1} {
		bad := maps.Clone(table)
		bad[id] = core.NewRecord([]core.ClipPoint{{Coord: geom.Point{1, -0.5}, Mask: geom.Corner(1)}}, 2)
		bads = append(bads, bad)
	}
	for id, rec := range table {
		missing, flipped := maps.Clone(table), maps.Clone(table)
		delete(missing, id)
		flipped[id] = slices.Clone(rec)
		flipped[id][len(rec)-1] = math.Float64frombits(math.Float64bits(rec[len(rec)-1]) ^ 1)
		bads = append(bads, missing, flipped)
		break
	}
	before := built.EncodeClips(2, nil)
	for i, bad := range bads {
		if _, err := Restore(tree, core.DefaultParams(2), bad); err == nil {
			t.Fatalf("table %d is not the tree's records, and Restore accepted it", i)
		}
		if !bytes.Equal(built.EncodeClips(2, nil), before) {
			t.Fatalf("a failed Restore of table %d changed the tree's records", i)
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
	return encodeRecords(2, nil, s.Version().Records())
}
