package cbb

import (
	"fmt"
	"math/rand"
	"testing"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/rtree"
)

func TestOptionsDefaults(t *testing.T) {
	opts, err := Options{Dims: 2}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if opts.MaxEntries <= 0 || opts.MinEntries <= 0 || opts.MaxClipPoints != 8 || opts.ClipThreshold != 0.025 {
		t.Fatalf("defaults wrong: %+v", opts)
	}
	if opts.Variant != QRTree {
		t.Errorf("zero-value Variant is %v, documented (and every Options{Dims: …} tree built) as QRTree", opts.Variant)
	}
	if _, err := (Options{}).withDefaults(); err == nil {
		t.Error("missing Dims must be rejected")
	}
	if _, err := (Options{Dims: 2, Clipping: ClipMethod(9)}).withDefaults(); err == nil {
		t.Error("unknown clipping method must be rejected")
	}
	if _, err := New(Options{Dims: 0}); err == nil {
		t.Error("New should propagate option errors")
	}
}

func TestClipMethodString(t *testing.T) {
	if ClipStairline.String() != "CSTA" || ClipSkyline.String() != "CSKY" || ClipNone.String() != "none" {
		t.Error("clip method names wrong")
	}
	if ClipMethod(9).String() == "" {
		t.Error("unknown method should render")
	}
}

func TestQuickstartFlow(t *testing.T) {
	tree, err := New(Options{Dims: 2, Variant: RStarTree})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(R(0, 0, 10, 5), 1); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(R(20, 20, 24, 28), 2); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 2 || tree.Height() == 0 {
		t.Fatalf("unexpected shape: len=%d height=%d", tree.Len(), tree.Height())
	}
	if got := tree.Count(R(1, 1, 3, 3)); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
	all := tree.SearchAll(R(-100, -100, 100, 100))
	if len(all) != 2 {
		t.Fatalf("SearchAll found %d", len(all))
	}
	found, err := tree.Delete(R(0, 0, 10, 5), 1)
	if err != nil || !found {
		t.Fatalf("Delete: %v %v", found, err)
	}
	if tree.Len() != 1 {
		t.Fatal("Len after delete wrong")
	}
	if found, _ := tree.Delete(R(0, 0, 1, 1), 99); found {
		t.Error("deleting a missing object should report false")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tree.Bounds().Equal(R(20, 20, 24, 28)) {
		t.Errorf("Bounds = %v", tree.Bounds())
	}
}

func TestAllVariantsAndClipModes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := make([]Item, 2000)
	for i := range items {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		items[i] = Item{Object: ObjectID(i), Rect: R(x, y, x+rng.Float64()*30, y+rng.Float64()*2)}
	}
	queries := make([]Rect, 100)
	for i := range queries {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		queries[i] = R(x, y, x+8, y+8)
	}
	// Reference counts from a plain unclipped quadratic tree.
	ref, err := New(Options{Dims: 2, Variant: QRTree, Clipping: ClipNone, MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = ref.Count(q)
	}
	for _, variant := range []Variant{QRTree, HRTree, RStarTree, RRStarTree} {
		for _, clip := range []ClipMethod{ClipNone, ClipSkyline, ClipStairline} {
			name := fmt.Sprintf("%v-%v", variant, clip)
			t.Run(name, func(t *testing.T) {
				tree, err := New(Options{Dims: 2, Variant: variant, Clipping: clip, MaxEntries: 16, MinEntries: 6})
				if err != nil {
					t.Fatal(err)
				}
				if err := tree.BulkLoad(items); err != nil {
					t.Fatal(err)
				}
				if tree.Len() != len(items) {
					t.Fatalf("Len = %d", tree.Len())
				}
				for i, q := range queries {
					if got := tree.Count(q); got != want[i] {
						t.Fatalf("query %d: got %d, want %d", i, got, want[i])
					}
				}
				if err := tree.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestClippingReducesLeafIO(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := make([]Item, 4000)
	for i := range items {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		if i%2 == 0 {
			items[i] = Item{Object: ObjectID(i), Rect: R(x, y, x+rng.Float64()*50, y+1)}
		} else {
			items[i] = Item{Object: ObjectID(i), Rect: R(x, y, x+1, y+rng.Float64()*50)}
		}
	}
	queries := make([]Rect, 300)
	for i := range queries {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		queries[i] = R(x, y, x+4, y+4)
	}
	measure := func(clip ClipMethod) int64 {
		tree, err := New(Options{Dims: 2, Variant: RStarTree, Clipping: clip, MaxEntries: 16, MinEntries: 6})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
		tree.ResetIOStats()
		for _, q := range queries {
			tree.Search(q, func(ObjectID, Rect) bool { return true })
		}
		return tree.IOStats().LeafReads
	}
	plain := measure(ClipNone)
	sky := measure(ClipSkyline)
	sta := measure(ClipStairline)
	if sta > plain || sky > plain {
		t.Fatalf("clipping must not increase leaf I/O: plain=%d sky=%d sta=%d", plain, sky, sta)
	}
	if sta > sky {
		t.Errorf("stairline clipping (%d) should be at least as effective as skyline (%d)", sta, sky)
	}
	t.Logf("leaf reads: unclipped=%d CSKY=%d CSTA=%d", plain, sky, sta)
}

func TestStatsAndIOStats(t *testing.T) {
	tree, err := New(Options{Dims: 2, MaxEntries: 8, MinEntries: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		if err := tree.Insert(R(x, y, x+5, y+0.3), ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := tree.Stats()
	if s.Objects != 500 || s.LeafNodes == 0 || s.Height < 2 {
		t.Fatalf("implausible stats: %+v", s)
	}
	if s.ClipPoints == 0 || s.AvgClipPoints <= 0 || s.ClipTableBytes <= 0 {
		t.Fatalf("clip statistics missing: %+v", s)
	}
	tree.ResetIOStats()
	tree.Count(R(0, 0, 100, 100))
	io := tree.IOStats()
	if io.LeafReads == 0 {
		t.Error("full query should read leaves")
	}
	// An unclipped tree reports zero clip statistics.
	plain, _ := New(Options{Dims: 2, Clipping: ClipNone})
	_ = plain.Insert(R(0, 0, 1, 1), 1)
	if ps := plain.Stats(); ps.ClipPoints != 0 || ps.ClipTableBytes != 0 {
		t.Error("unclipped tree should have no clip statistics")
	}
}

func TestJoinsPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	mk := func(n int, seed int64) []Item {
		r := rand.New(rand.NewSource(seed))
		items := make([]Item, n)
		for i := range items {
			x, y, z := r.Float64()*200, r.Float64()*200, r.Float64()*200
			items[i] = Item{Object: ObjectID(i), Rect: R(x, y, z, x+5, y+5, z+5)}
		}
		return items
	}
	leftItems, rightItems := mk(1200, 10), mk(700, 11)
	left, err := New(Options{Dims: 3, Variant: RRStarTree, MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := left.BulkLoad(leftItems); err != nil {
		t.Fatal(err)
	}
	right, err := New(Options{Dims: 3, Variant: RRStarTree, MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := right.BulkLoad(rightItems); err != nil {
		t.Fatal(err)
	}
	// Brute-force reference.
	var want int64
	for _, a := range leftItems {
		for _, b := range rightItems {
			if a.Rect.Intersects(b.Rect) {
				want++
			}
		}
	}
	var seen int64
	inlj, err := IndexNestedLoopJoin(left, rightItems, func(JoinPair) { seen++ })
	if err != nil {
		t.Fatal(err)
	}
	if inlj.Pairs != want || seen != want {
		t.Fatalf("INLJ pairs = %d (callback %d), want %d", inlj.Pairs, seen, want)
	}
	stt, err := SynchronizedTreeTraversalJoin(left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stt.Pairs != want {
		t.Fatalf("STT pairs = %d, want %d", stt.Pairs, want)
	}
	if stt.IO.LeafReads <= 0 || inlj.IO.LeafReads <= 0 {
		t.Error("joins should report I/O")
	}
	if _, err := IndexNestedLoopJoin(nil, nil, nil); err == nil {
		t.Error("nil tree must be rejected")
	}
	if _, err := SynchronizedTreeTraversalJoin(left, nil, nil); err == nil {
		t.Error("nil tree must be rejected")
	}
	_ = rng
}

func TestPointAndRectHelpers(t *testing.T) {
	p := Pt(1, 2)
	if p.Dims() != 2 {
		t.Error("Pt wrong")
	}
	r, err := NewRect(Pt(0, 0), Pt(1, 1))
	if err != nil || r.Volume() != 1 {
		t.Error("NewRect wrong")
	}
	if _, err := NewRect(Pt(2, 2), Pt(1, 1)); err == nil {
		t.Error("invalid rect should be rejected")
	}
}

// TestValidateRejectsHidingClipTable gives a tree a clip table whose root
// clip point <(3.9, 3.9), 00> certifies as dead a corner of [0,10]² holding
// a point object, which a clipped search then misses; Tree.Validate must
// report it (a test of overlap volume cannot: a point has none).
func TestValidateRejectsHidingClipTable(t *testing.T) {
	tree, err := New(Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []Rect{R(0, 5, 1, 10), R(5, 0, 10, 1), R(9, 9, 10, 10), R(2, 2, 2, 2)} {
		if err := tree.Insert(r, ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	var root rtree.NodeID
	tree.tree.Walk(func(info rtree.NodeInfo) {
		if info.Parent == rtree.InvalidNode {
			root = info.ID
		}
	})
	rec := core.NewRecord([]core.ClipPoint{{Coord: Pt(3.9, 3.9), Mask: 0}}, 2)
	tree.tree.SetRecord(root, rec)
	if tree.idx, err = clipindex.Restore(tree.tree, tree.opts.clipParams(), clipindex.Table{root: rec}); err != nil {
		t.Fatal(err)
	}
	if n := tree.Count(R(1.9, 1.9, 2.1, 2.1)); n != 0 {
		t.Fatalf("clipped search found %d objects: the clip point should hide the point", n)
	}
	if err := tree.Validate(); err == nil {
		t.Fatal("Validate passed a clip table that hides an object")
	}
}
