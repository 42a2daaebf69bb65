package rtree

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/storage"
)

// smallConfig returns a configuration with a small fan-out so that tests
// exercise splits and multiple levels with few objects.
func smallConfig(dims int, v Variant) Config {
	return Config{Dims: dims, MaxEntries: 8, MinEntries: 3, Variant: v, HilbertBits: 12}
}

func randRect(rng *rand.Rand, dims int, span, maxSide float64) geom.Rect {
	lo := make(geom.Point, dims)
	hi := make(geom.Point, dims)
	for d := 0; d < dims; d++ {
		a := rng.Float64() * span
		lo[d] = a
		hi[d] = a + rng.Float64()*maxSide
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

func bruteForceSearch(items []Item, q geom.Rect) map[ObjectID]bool {
	out := make(map[ObjectID]bool)
	for _, it := range items {
		if it.Rect.Intersects(q) {
			out[it.Object] = true
		}
	}
	return out
}

func TestVariantString(t *testing.T) {
	names := map[Variant]string{
		Quadratic: "QR-tree", Hilbert: "HR-tree", RStar: "R*-tree", RRStar: "RR*-tree",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("Variant %d String = %q, want %q", v, v.String(), want)
		}
	}
	if Variant(99).String() == "" {
		t.Error("unknown variant should render")
	}
	if len(AllVariants()) != 4 {
		t.Error("AllVariants should list the four paper variants")
	}
}

// TestParseVariant round-trips every variant's String and parses each alias
// in any case and with spaces around it.
func TestParseVariant(t *testing.T) {
	for _, v := range AllVariants() {
		if got, err := ParseVariant(v.String()); err != nil || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", v.String(), got, err, v)
		}
	}
	for name, want := range map[string]Variant{
		"qr": Quadratic, " Quadratic ": Quadratic,
		"HR": Hilbert, "hilbert\t": Hilbert,
		"r*": RStar, "RStar": RStar,
		"rr*": RRStar, " rrstar": RRStar, "rr*-TREE": RRStar,
	} {
		if got, err := ParseVariant(name); err != nil || got != want {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "r", "rr**", "Variant(99)"} {
		if _, err := ParseVariant(name); err == nil {
			t.Errorf("ParseVariant(%q) succeeded; want an error", name)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		cfg  Config
		ok   bool
		name string
	}{
		{DefaultConfig(2, Quadratic), true, "default 2d"},
		{DefaultConfig(3, RRStar), true, "default 3d"},
		{Config{Dims: 0, MaxEntries: 10, MinEntries: 4, Variant: RStar}, false, "zero dims"},
		{Config{Dims: 2, MaxEntries: 3, MinEntries: 1, Variant: RStar}, false, "tiny max"},
		{Config{Dims: 2, MaxEntries: 10, MinEntries: 6, Variant: RStar}, false, "min > max/2"},
		{Config{Dims: 2, MaxEntries: 10, MinEntries: 4, Variant: Variant(9)}, false, "bad variant"},
	}
	for _, c := range cases {
		_, err := New(c.cfg)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestEmptyTree(t *testing.T) {
	tr := MustNew(smallConfig(2, Quadratic))
	if tr.Len() != 0 || tr.Height() != 0 || tr.RootID() != InvalidNode {
		t.Error("fresh tree should be empty")
	}
	if !tr.CurrentVersion().Bounds().IsZero() {
		t.Error("empty tree bounds should be zero")
	}
	found := 0
	tr.CurrentVersion().Search(geom.R(0, 0, 1, 1), func(ObjectID, geom.Rect) bool { found++; return true })
	if found != 0 {
		t.Error("searching an empty tree should find nothing")
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("empty tree should validate: %v", err)
	}
	if _, err := tr.Node(0); err == nil {
		t.Error("Node on empty arena should fail")
	}
}

func TestInsertRejectsBadRect(t *testing.T) {
	tr := MustNew(smallConfig(2, Quadratic))
	if _, err := tr.Insert(geom.Rect{}, 1); err == nil {
		t.Error("zero rect must be rejected")
	}
	if _, err := tr.Insert(geom.R(0, 0, 0, 1, 1, 1), 1); err == nil {
		t.Error("wrong dimensionality must be rejected")
	}
}

func TestInsertAndSearchAllVariants(t *testing.T) {
	for _, v := range AllVariants() {
		for _, dims := range []int{2, 3} {
			name := fmt.Sprintf("%v-%dd", v, dims)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				tr := MustNew(smallConfig(dims, v))
				var items []Item
				for i := 0; i < 500; i++ {
					r := randRect(rng, dims, 1000, 20)
					items = append(items, Item{Object: ObjectID(i), Rect: r})
					if _, err := tr.Insert(r, ObjectID(i)); err != nil {
						t.Fatalf("insert %d: %v", i, err)
					}
				}
				if tr.Len() != 500 {
					t.Fatalf("Len = %d, want 500", tr.Len())
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("invariants violated: %v", err)
				}
				if tr.Height() < 2 {
					t.Fatalf("500 objects with fan-out 8 should give height >= 2, got %d", tr.Height())
				}
				// Random range queries agree with brute force.
				for q := 0; q < 50; q++ {
					query := randRect(rng, dims, 1000, 80)
					want := bruteForceSearch(items, query)
					got := make(map[ObjectID]bool)
					tr.CurrentVersion().Search(query, func(id ObjectID, _ geom.Rect) bool {
						got[id] = true
						return true
					})
					if len(got) != len(want) {
						t.Fatalf("query %v: got %d results, want %d", query, len(got), len(want))
					}
					for id := range want {
						if !got[id] {
							t.Fatalf("query %v missing object %d", query, id)
						}
					}
				}
			})
		}
	}
}

func TestSearchEarlyTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := MustNew(smallConfig(2, Quadratic))
	for i := 0; i < 200; i++ {
		_, _ = tr.Insert(randRect(rng, 2, 100, 10), ObjectID(i))
	}
	visited := 0
	tr.CurrentVersion().Search(geom.R(0, 0, 100, 100), func(ObjectID, geom.Rect) bool {
		visited++
		return visited < 5
	})
	if visited != 5 {
		t.Fatalf("early termination failed, visited %d", visited)
	}
}

func TestSearchCountsIO(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := MustNew(smallConfig(2, RStar))
	for i := 0; i < 400; i++ {
		_, _ = tr.Insert(randRect(rng, 2, 1000, 10), ObjectID(i))
	}
	tr.Counter().Reset()
	tr.CurrentVersion().Search(geom.R(0, 0, 1000, 1000), func(ObjectID, geom.Rect) bool { return true })
	snap := tr.Counter().Snapshot()
	leaves := tr.Stats().LeafNodes
	if snap.LeafReads != int64(leaves) {
		t.Errorf("full-space query should read every leaf: read %d of %d", snap.LeafReads, leaves)
	}
	if snap.DirReads == 0 {
		t.Error("directory reads should be counted")
	}
	// A tiny query should read far fewer leaves.
	tr.Counter().Reset()
	tr.CurrentVersion().Search(geom.R(1, 1, 2, 2), func(ObjectID, geom.Rect) bool { return true })
	if small := tr.Counter().Snapshot().LeafReads; small >= int64(leaves) {
		t.Errorf("small query read %d leaves of %d", small, leaves)
	}
}

// withRootChildRecords gives every child of the root one clip point at
// corner 0 with all coordinates c — its dead region is everything below c, so
// 1e18 prunes any query and -1e18 none — and returns the version that
// publishes them.
func withRootChildRecords(tr *Tree, c float64) *Version {
	root, _ := tr.Node(tr.RootID())
	for i := 0; i < root.Len(); i++ {
		tr.SetRecord(root.Child(i), core.NewRecord([]core.ClipPoint{{Coord: geom.Point{c, c}}}, 2))
	}
	tr.PublishRecords()
	return tr.CurrentVersion()
}

// dirNodes lists the node objects of the writer's directory, by id.
func dirNodes(tr *Tree) []*node {
	out := make([]*node, tr.dir.n)
	for id := range out {
		out[id] = tr.dir.at(NodeID(id)).node.Load()
	}
	return out
}

func TestSearchFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := MustNew(smallConfig(2, Quadratic))
	for i := 0; i < 300; i++ {
		_, _ = tr.Insert(randRect(rng, 2, 500, 5), ObjectID(i))
	}
	// Records that certify everything dead prune all children of the root.
	tr.Counter().Reset()
	count := 0
	io, err := withRootChildRecords(tr, 1e18).SearchClipped(geom.R(0, 0, 500, 500),
		func(ObjectID, geom.Rect) bool { count++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("records rejecting all children should yield no results, got %d", count)
	}
	if io.LeafReads != 0 || io.DirReads != 1 {
		t.Errorf("rejected children must not be read: %+v", io)
	}
	if tr.Counter().Snapshot() != (storage.Snapshot{}) {
		t.Error("SearchClipped must charge no counter")
	}
	// Records that certify nothing dead behave like Search.
	got := 0
	withRootChildRecords(tr, -1e18).SearchClipped(geom.R(0, 0, 500, 500),
		func(ObjectID, geom.Rect) bool { got++; return true })
	if got != tr.Count(geom.R(0, 0, 500, 500)) {
		t.Error("pass-through records should match unfiltered search")
	}
}

func TestInsertTraceReportsSplitsAndMBBChanges(t *testing.T) {
	tr := MustNew(smallConfig(2, Quadratic))
	var sawSplit, sawMBBChange bool
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		trace, err := tr.Insert(randRect(rng, 2, 100, 10), ObjectID(i))
		if err != nil {
			t.Fatal(err)
		}
		if trace.Leaf == InvalidNode {
			t.Fatal("trace should record the receiving leaf")
		}
		if len(trace.Split) > 0 {
			sawSplit = true
			if len(trace.Created) == 0 {
				t.Error("a split must create at least one node")
			}
		}
		if len(trace.MBBChanged) > 0 {
			sawMBBChange = true
		}
		for _, id := range trace.Split {
			if !trace.Changed(id) {
				t.Error("Changed should report split nodes")
			}
		}
	}
	if !sawSplit || !sawMBBChange {
		t.Errorf("expected both splits (%v) and MBB changes (%v) over 200 inserts", sawSplit, sawMBBChange)
	}
}

func TestDelete(t *testing.T) {
	for _, v := range AllVariants() {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			tr := MustNew(smallConfig(2, v))
			var items []Item
			for i := 0; i < 300; i++ {
				r := randRect(rng, 2, 500, 10)
				items = append(items, Item{Object: ObjectID(i), Rect: r})
				_, _ = tr.Insert(r, ObjectID(i))
			}
			// Delete half the objects.
			for i := 0; i < 150; i++ {
				trace, err := tr.Delete(items[i].Rect, items[i].Object)
				if err != nil {
					t.Fatal(err)
				}
				if !trace.Found {
					t.Fatalf("object %d not found for deletion", i)
				}
			}
			if tr.Len() != 150 {
				t.Fatalf("Len after deletions = %d, want 150", tr.Len())
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("invariants violated after deletions: %v", err)
			}
			// Deleted objects are gone; remaining ones are still found.
			remaining := items[150:]
			got := make(map[ObjectID]bool)
			tr.CurrentVersion().Search(geom.R(-10, -10, 600, 600), func(id ObjectID, _ geom.Rect) bool {
				got[id] = true
				return true
			})
			if len(got) != len(remaining) {
				t.Fatalf("full search found %d, want %d", len(got), len(remaining))
			}
			for _, it := range remaining {
				if !got[it.Object] {
					t.Fatalf("remaining object %d missing", it.Object)
				}
			}
			// Deleting a non-existent object reports not found.
			trace, err := tr.Delete(geom.R(1, 1, 2, 2), 99999)
			if err != nil || trace.Found {
				t.Error("deleting a missing object should report Found=false")
			}
		})
	}
}

func TestDeleteEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := MustNew(smallConfig(2, RStar))
	var items []Item
	for i := 0; i < 100; i++ {
		r := randRect(rng, 2, 100, 5)
		items = append(items, Item{Object: ObjectID(i), Rect: r})
		_, _ = tr.Insert(r, ObjectID(i))
	}
	for _, it := range items {
		trace, err := tr.Delete(it.Rect, it.Object)
		if err != nil || !trace.Found {
			t.Fatalf("delete %d failed: %v %v", it.Object, err, trace)
		}
	}
	if tr.Len() != 0 || tr.RootID() != InvalidNode || tr.Height() != 0 {
		t.Fatalf("tree should be empty: len=%d root=%d height=%d", tr.Len(), tr.RootID(), tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Tree remains usable after total deletion.
	if _, err := tr.Insert(geom.R(0, 0, 1, 1), 7); err != nil {
		t.Fatal(err)
	}
	if tr.Count(geom.R(0, 0, 2, 2)) != 1 {
		t.Error("re-inserted object not found")
	}
}

func TestDeleteRejectsBadRect(t *testing.T) {
	tr := MustNew(smallConfig(2, Quadratic))
	if _, err := tr.Delete(geom.Rect{}, 1); err == nil {
		t.Error("invalid rect must be rejected")
	}
}

func TestBulkLoadAllVariants(t *testing.T) {
	for _, v := range AllVariants() {
		for _, n := range []int{0, 1, 7, 64, 1000} {
			t.Run(fmt.Sprintf("%v-%d", v, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n) + 7))
				items := make([]Item, n)
				for i := range items {
					items[i] = Item{Object: ObjectID(i), Rect: randRect(rng, 2, 1000, 15)}
				}
				tr := MustNew(smallConfig(2, v))
				if err := tr.BulkLoad(items); err != nil {
					t.Fatal(err)
				}
				if tr.Len() != n {
					t.Fatalf("Len = %d, want %d", tr.Len(), n)
				}
				if n > 0 {
					if err := tr.Validate(); err != nil {
						t.Fatalf("invariants violated: %v", err)
					}
				}
				// Query agreement with brute force.
				for q := 0; q < 20; q++ {
					query := randRect(rng, 2, 1000, 100)
					want := bruteForceSearch(items, query)
					got := 0
					tr.CurrentVersion().Search(query, func(ObjectID, geom.Rect) bool { got++; return true })
					if got != len(want) {
						t.Fatalf("query %d: got %d, want %d", q, got, len(want))
					}
				}
			})
		}
	}
}

func TestBulkLoadRequiresEmptyTree(t *testing.T) {
	tr := MustNew(smallConfig(2, Quadratic))
	_, _ = tr.Insert(geom.R(0, 0, 1, 1), 1)
	if err := tr.BulkLoad([]Item{{Object: 2, Rect: geom.R(1, 1, 2, 2)}}); err == nil {
		t.Error("BulkLoad on a non-empty tree must fail")
	}
	tr2 := MustNew(smallConfig(2, Quadratic))
	if err := tr2.BulkLoad([]Item{{Object: 1, Rect: geom.R(0, 0, 0, 1, 1, 1)}}); err == nil {
		t.Error("BulkLoad with wrong-dimensional item must fail")
	}
}

func TestBulkLoadThenInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := make([]Item, 500)
	for i := range items {
		items[i] = Item{Object: ObjectID(i), Rect: randRect(rng, 2, 1000, 10)}
	}
	for _, v := range AllVariants() {
		tr := MustNew(smallConfig(2, v))
		if err := tr.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
		for i := 500; i < 600; i++ {
			if _, err := tr.Insert(randRect(rng, 2, 1000, 10), ObjectID(i)); err != nil {
				t.Fatalf("%v: insert after bulk load: %v", v, err)
			}
		}
		if tr.Len() != 600 {
			t.Fatalf("%v: Len = %d", v, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

func TestHilbertPackingProducesTighterLeaves(t *testing.T) {
	// Hilbert-ordered packing should produce leaves with much smaller total
	// volume than packing in insertion (random) order would; as a proxy we
	// check that the sum of leaf MBB volumes is far below the universe
	// volume times the leaf count.
	rng := rand.New(rand.NewSource(10))
	items := make([]Item, 2000)
	for i := range items {
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		items[i] = Item{Object: ObjectID(i), Rect: geom.MustRect(c, c.Add(geom.Pt(1, 1)))}
	}
	tr := MustNew(smallConfig(2, Hilbert))
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	var totalVol float64
	var leaves int
	tr.Walk(func(info NodeInfo) {
		if info.Leaf {
			totalVol += info.MBB.Volume()
			leaves++
		}
	})
	avg := totalVol / float64(leaves)
	if avg > 0.05*1000*1000 {
		t.Errorf("average Hilbert leaf volume %.0f is suspiciously large", avg)
	}
}

func TestNodeAndWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := MustNew(smallConfig(2, Quadratic))
	for i := 0; i < 100; i++ {
		_, _ = tr.Insert(randRect(rng, 2, 100, 10), ObjectID(i))
	}
	seen := 0
	leafObjects := 0
	err := tr.Walk(func(info NodeInfo) {
		seen++
		if info.Leaf {
			leafObjects += info.Len()
			if info.Level != 0 {
				t.Error("leaves must be level 0")
			}
		}
		got, err := tr.Node(info.ID)
		if err != nil {
			t.Fatalf("Node(%d): %v", info.ID, err)
		}
		if !got.MBB.Equal(info.MBB) {
			t.Error("Node and Walk disagree on MBB")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if leafObjects != 100 {
		t.Errorf("walk reached %d objects, want 100", leafObjects)
	}
	s := tr.Stats()
	dir, leaf := s.DirNodes, s.LeafNodes
	if dir+leaf != seen {
		t.Errorf("Stats counts %d+%d nodes, walked %d", dir, leaf, seen)
	}
	if all, err := tr.AllItems(); err != nil || len(all) != 100 {
		t.Errorf("AllItems returned %d items, error %v", len(all), err)
	}
	if _, err := tr.Node(NodeID(9999)); err == nil {
		t.Error("Node with bogus id should fail")
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := MustNew(smallConfig(2, RRStar))
	for i := 0; i < 300; i++ {
		_, _ = tr.Insert(randRect(rng, 2, 100, 5), ObjectID(i))
	}
	s := tr.Stats()
	if s.Objects != 300 || s.Height != tr.Height() {
		t.Errorf("Stats basic fields wrong: %+v", s)
	}
	if s.LeafNodes == 0 || s.DirNodes == 0 {
		t.Error("expected both leaf and directory nodes")
	}
	if s.AvgLeafOcc <= 0 || s.AvgLeafOcc > 1 {
		t.Errorf("AvgLeafOcc out of range: %g", s.AvgLeafOcc)
	}
	if s.Bounds.IsZero() {
		t.Error("Bounds should not be zero")
	}
}

func TestOccupancyInvariant(t *testing.T) {
	// After a long random insert/delete workload, every variant still
	// respects the occupancy bounds (checked by Validate) and answers
	// queries correctly.
	for _, v := range AllVariants() {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			tr := MustNew(smallConfig(2, v))
			live := make(map[ObjectID]geom.Rect)
			next := ObjectID(0)
			for step := 0; step < 1500; step++ {
				if len(live) == 0 || rng.Float64() < 0.65 {
					r := randRect(rng, 2, 300, 8)
					if _, err := tr.Insert(r, next); err != nil {
						t.Fatal(err)
					}
					live[next] = r
					next++
				} else {
					// Delete a random live object.
					var victim ObjectID
					k := rng.Intn(len(live))
					for id := range live {
						if k == 0 {
							victim = id
							break
						}
						k--
					}
					trace, err := tr.Delete(live[victim], victim)
					if err != nil || !trace.Found {
						t.Fatalf("delete of %d failed: %v", victim, err)
					}
					delete(live, victim)
				}
			}
			if tr.Len() != len(live) {
				t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			got := 0
			tr.CurrentVersion().Search(geom.R(-10, -10, 400, 400), func(ObjectID, geom.Rect) bool { got++; return true })
			if got != len(live) {
				t.Fatalf("full query found %d of %d", got, len(live))
			}
		})
	}
}

func TestRStarProducesLessOverlapThanQuadratic(t *testing.T) {
	// Statistical sanity check of the split policies: on clustered data, the
	// R*-tree's leaf-level overlap should not exceed the quadratic tree's by
	// any meaningful margin (usually it is clearly lower).
	rng := rand.New(rand.NewSource(14))
	var items []Item
	for c := 0; c < 20; c++ {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		for i := 0; i < 100; i++ {
			x, y := cx+rng.NormFloat64()*20, cy+rng.NormFloat64()*20
			items = append(items, Item{
				Object: ObjectID(c*100 + i),
				Rect:   geom.R(x, y, x+rng.Float64()*5, y+rng.Float64()*5),
			})
		}
	}
	overlapOf := func(v Variant) float64 {
		tr := MustNew(smallConfig(2, v))
		for _, it := range items {
			_, _ = tr.Insert(it.Rect, it.Object)
		}
		var overlap float64
		tr.Walk(func(info NodeInfo) {
			if info.Leaf {
				return
			}
			for i := 0; i < info.Len(); i++ {
				for j := i + 1; j < info.Len(); j++ {
					overlap += info.Rect(i).OverlapVolume(info.Rect(j))
				}
			}
		})
		return overlap
	}
	q := overlapOf(Quadratic)
	r := overlapOf(RStar)
	if r > q*1.5 {
		t.Errorf("R*-tree overlap (%.0f) much worse than quadratic (%.0f)", r, q)
	}
}

func TestMaxEntriesForPage(t *testing.T) {
	m2 := MaxEntriesForPage(4096, 2)
	m3 := MaxEntriesForPage(4096, 3)
	if m2 <= m3 {
		t.Errorf("2d capacity (%d) should exceed 3d capacity (%d)", m2, m3)
	}
	if m2 < 50 || m2 > 200 {
		t.Errorf("2d capacity for 4KiB pages looks wrong: %d", m2)
	}
	if MaxEntriesForPage(10, 2) != 0 {
		t.Error("tiny pages hold no entries")
	}
	if EntryBytes(2) != 40 || EntryBytes(3) != 56 {
		t.Error("EntryBytes wrong")
	}
}

func TestSortEntriesByAxis(t *testing.T) {
	entries := []Entry{
		{Rect: geom.R(5, 0, 6, 1)},
		{Rect: geom.R(1, 0, 9, 1)},
		{Rect: geom.R(1, 0, 2, 1)},
	}
	byLo := sortEntriesByAxis(entries, 0, false)
	if byLo[0].Rect.Lo[0] != 1 || byLo[2].Rect.Lo[0] != 5 {
		t.Error("sort by lower bound wrong")
	}
	// Ties on Lo are broken by Hi.
	if byLo[0].Rect.Hi[0] != 2 {
		t.Error("tie-break by upper bound wrong")
	}
	byHi := sortEntriesByAxis(entries, 0, true)
	if byHi[0].Rect.Hi[0] != 1 && byHi[0].Rect.Hi[0] != 2 {
		t.Error("sort by upper bound wrong")
	}
}

func TestGroupSizes(t *testing.T) {
	cases := []struct {
		n, cap int
		groups int
	}{
		{0, 10, 0}, {5, 10, 1}, {10, 10, 1}, {11, 10, 2}, {101, 50, 3},
	}
	for _, c := range cases {
		sizes := groupSizes(c.n, c.cap)
		if len(sizes) != c.groups {
			t.Errorf("groupSizes(%d,%d) gave %d groups, want %d", c.n, c.cap, len(sizes), c.groups)
		}
		sum := 0
		for _, s := range sizes {
			sum += s
			if s > c.cap {
				t.Errorf("group size %d exceeds capacity %d", s, c.cap)
			}
		}
		if sum != c.n {
			t.Errorf("groupSizes(%d,%d) sums to %d", c.n, c.cap, sum)
		}
		if len(sizes) > 1 {
			min := sizes[0]
			for _, s := range sizes {
				if s < min {
					min = s
				}
			}
			if min < c.cap/2 {
				t.Errorf("smallest group %d below capacity/2", min)
			}
		}
	}
}

// Property-style test: for every variant, the set of (object, rect) pairs
// returned by AllItems is exactly what was inserted.
func TestAllReturnsEveryObject(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, v := range AllVariants() {
		tr := MustNew(smallConfig(3, v))
		want := make(map[ObjectID]geom.Rect)
		for i := 0; i < 400; i++ {
			r := randRect(rng, 3, 200, 10)
			want[ObjectID(i)] = r
			_, _ = tr.Insert(r, ObjectID(i))
		}
		got, err := tr.AllItems()
		if err != nil || len(got) != len(want) {
			t.Fatalf("%v: AllItems returned %d, want %d (error %v)", v, len(got), len(want), err)
		}
		ids := make([]int, 0, len(got))
		for _, e := range got {
			if !e.Rect.Equal(want[e.Object]) {
				t.Fatalf("%v: object %d has rect %v, want %v", v, e.Object, e.Rect, want[e.Object])
			}
			ids = append(ids, int(e.Object))
		}
		sort.Ints(ids)
		for i, id := range ids {
			if id != i {
				t.Fatalf("%v: missing or duplicated object ids", v)
			}
		}
	}
}

// TestWriterSideViewsStayValid pins the node aliasing rule where copy-on-write
// cannot help: inside one open batch the writer mutates its own node clones
// many times, and views taken of them in between (trace placements, orphans,
// Walk snapshots) must keep their values, so removal, replacement, and
// splitting may never rewrite a node's arrays in place.
func TestWriterSideViewsStayValid(t *testing.T) {
	for _, v := range AllVariants() {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			tr := MustNew(smallConfig(2, v))
			var items []Item
			for i := 0; i < 300; i++ {
				items = append(items, Item{Object: ObjectID(i), Rect: randRect(rng, 2, 100, 5)})
			}
			if err := tr.BulkLoad(items); err != nil {
				t.Fatal(err)
			}
			if err := tr.BeginBatch(); err != nil {
				t.Fatal(err)
			}
			type kept struct{ view, copy geom.Rect }
			var views []kept
			nextID := len(items)
			for round := 0; round < 40; round++ {
				tr.Walk(func(info NodeInfo) {
					for i := 0; i < info.Len(); i++ {
						views = append(views, kept{info.Rect(i), info.Rect(i).Clone()})
					}
				})
				for k := 0; k < 10; k++ {
					it := Item{Object: ObjectID(nextID), Rect: randRect(rng, 2, 100, 5)}
					nextID++
					trace, err := tr.Insert(it.Rect, it.Object)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range trace.Placements {
						views = append(views, kept{p.Rect, p.Rect.Clone()})
					}
					items = append(items, it)
					i := rng.Intn(len(items))
					if _, err := tr.Delete(items[i].Rect, items[i].Object); err != nil {
						t.Fatal(err)
					}
					items = append(items[:i], items[i+1:]...)
				}
			}
			for i, k := range views {
				if !k.view.Equal(k.copy) {
					t.Fatalf("view %d of %d changed from %v to %v", i, len(views), k.copy, k.view)
				}
			}
			tr.CommitBatch()
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPublishDropsSupersededVersions checks that the tree keeps no reference
// to a superseded version: once the readers holding old versions drop them,
// the garbage collector reclaims the versions and the node generations only
// they referenced.
func TestPublishDropsSupersededVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tr := MustNew(smallConfig(2, RStar))
	insert := func(id int) {
		t.Helper()
		if _, err := tr.Insert(randRect(rng, 2, 100, 5), ObjectID(id)); err != nil {
			t.Fatal(err)
		}
	}
	insert(0)
	collected := make(chan struct{})
	runtime.SetFinalizer(tr.mustNode(tr.root), func(*node) { close(collected) })
	held := []*Version{tr.CurrentVersion()}
	for i := 1; i < 8; i++ {
		insert(i) // clones the root leaf: the finalizer's node is superseded
		held = append(held, tr.CurrentVersion())
	}
	clear(held)
	insert(8)
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("a node only superseded versions referenced was never collected")
}

func BenchmarkInsertQuadratic(b *testing.B) {
	benchmarkInsert(b, Quadratic)
}

func BenchmarkInsertRStar(b *testing.B) {
	benchmarkInsert(b, RStar)
}

func BenchmarkInsertRRStar(b *testing.B) {
	benchmarkInsert(b, RRStar)
}

func benchmarkInsert(b *testing.B, v Variant) {
	rng := rand.New(rand.NewSource(1))
	tr := MustNew(DefaultConfig(2, v))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = tr.Insert(randRect(rng, 2, 10000, 10), ObjectID(i))
	}
}

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := MustNew(DefaultConfig(2, RStar))
	for i := 0; i < 20000; i++ {
		_, _ = tr.Insert(randRect(rng, 2, 10000, 10), ObjectID(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := randRect(rng, 2, 10000, 100)
		tr.CurrentVersion().Search(q, func(ObjectID, geom.Rect) bool { return true })
	}
}
