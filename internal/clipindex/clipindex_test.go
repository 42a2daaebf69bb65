package clipindex

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// points is a clip table written as clip points, for tests that make one by
// hand; tableOf flattens it into records.
type points map[rtree.NodeID][]core.ClipPoint

func tableOf(p points, dims int) Table {
	t := make(Table, len(p))
	for id, clips := range p {
		t[id] = core.NewRecord(clips, dims)
	}
	return t
}

// records copies the writer's clip records into a Table.
func records(x *Index) Table { return Table(maps.Collect(x.Tree().Records())) }

func smallConfig(dims int, v rtree.Variant) rtree.Config {
	return rtree.Config{Dims: dims, MaxEntries: 8, MinEntries: 3, Variant: v, HilbertBits: 12}
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

// buildClusteredTree builds a tree over clustered skinny objects, which
// produce plenty of dead space for clipping to remove.
func buildClusteredTree(t testing.TB, rng *rand.Rand, v rtree.Variant, n int) (*rtree.Tree, []rtree.Item) {
	t.Helper()
	tree := rtree.MustNew(smallConfig(2, v))
	var items []rtree.Item
	for i := 0; i < n; i++ {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		var r geom.Rect
		if i%2 == 0 {
			r = geom.R(cx, cy, cx+rng.Float64()*40, cy+rng.Float64()*2) // horizontal sliver
		} else {
			r = geom.R(cx, cy, cx+rng.Float64()*2, cy+rng.Float64()*40) // vertical sliver
		}
		items = append(items, rtree.Item{Object: rtree.ObjectID(i), Rect: r})
		if _, err := tree.Insert(r, rtree.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tree, items
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, core.DefaultParams(2)); err == nil {
		t.Error("nil tree must be rejected")
	}
	tree := rtree.MustNew(smallConfig(2, rtree.Quadratic))
	if _, err := New(tree, core.Params{K: -1}); err == nil {
		t.Error("invalid params must be rejected")
	}
	idx, err := New(tree, core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Tree().Len() != 0 {
		t.Error("empty index should have length 0")
	}
	// Searching an empty index is a no-op.
	idx.Search(geom.R(0, 0, 1, 1), func(rtree.ObjectID, geom.Rect) bool { return true })
}

func TestClippedSearchMatchesUnclipped(t *testing.T) {
	for _, v := range rtree.AllVariants() {
		for _, method := range []core.Method{core.MethodSkyline, core.MethodStairline} {
			t.Run(fmt.Sprintf("%v-%v", v, method), func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				tree, _ := buildClusteredTree(t, rng, v, 800)
				params := core.DefaultParams(2)
				params.Method = method
				idx, err := New(tree, params)
				if err != nil {
					t.Fatal(err)
				}
				if err := idx.Validate(); err != nil {
					t.Fatal(err)
				}
				for q := 0; q < 200; q++ {
					query := randRect(rng, 2, 1000, 60)
					unclipped := tree.Count(query)
					clipped := countClipped(idx, query)
					if unclipped != clipped {
						t.Fatalf("query %v: clipped %d != unclipped %d", query, clipped, unclipped)
					}
				}
			})
		}
	}
}

func TestClippedSearchSavesLeafIO(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tree, _ := buildClusteredTree(t, rng, rtree.RStar, 3000)
	idx, err := New(tree, core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]geom.Rect, 300)
	for i := range queries {
		// Small queries centred anywhere: many fall into dead space.
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		queries[i] = geom.MustRect(c, c.Add(geom.Pt(4, 4)))
	}
	tree.Counter().Reset()
	for _, q := range queries {
		tree.CurrentVersion().Search(q, func(rtree.ObjectID, geom.Rect) bool { return true })
	}
	unclipped := tree.Counter().Snapshot().LeafReads

	tree.Counter().Reset()
	for _, q := range queries {
		idx.Search(q, func(rtree.ObjectID, geom.Rect) bool { return true })
	}
	clipped := tree.Counter().Snapshot().LeafReads

	if clipped > unclipped {
		t.Fatalf("clipped search used more leaf I/O (%d) than unclipped (%d)", clipped, unclipped)
	}
	if clipped == unclipped {
		t.Logf("warning: clipping saved no I/O on this workload (%d leaf reads)", clipped)
	}
	t.Logf("leaf reads: unclipped %d, clipped %d (%.1f%%)", unclipped, clipped,
		100*float64(clipped)/float64(unclipped))
}

func TestStairlineSavesAtLeastAsMuchAsSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tree, _ := buildClusteredTree(t, rng, rtree.Quadratic, 2000)
	queries := make([]geom.Rect, 400)
	for i := range queries {
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		queries[i] = geom.MustRect(c, c.Add(geom.Pt(3, 3)))
	}
	measure := func(m core.Method) int64 {
		params := core.DefaultParams(2)
		params.Method = m
		idx, err := New(tree, params)
		if err != nil {
			t.Fatal(err)
		}
		tree.Counter().Reset()
		for _, q := range queries {
			idx.Search(q, func(rtree.ObjectID, geom.Rect) bool { return true })
		}
		return tree.Counter().Snapshot().LeafReads
	}
	sky := measure(core.MethodSkyline)
	sta := measure(core.MethodStairline)
	if sta > sky {
		t.Errorf("CSTA (%d leaf reads) should not be worse than CSKY (%d)", sta, sky)
	}
}

func TestInsertMaintainsCorrectness(t *testing.T) {
	for _, v := range rtree.AllVariants() {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(37))
			tree, items := buildClusteredTree(t, rng, v, 400)
			idx, err := New(tree, core.DefaultParams(2))
			if err != nil {
				t.Fatal(err)
			}
			// Insert more objects through the clipped index.
			var stats UpdateStats
			for i := 400; i < 700; i++ {
				r := randRect(rng, 2, 1000, 30)
				items = append(items, rtree.Item{Object: rtree.ObjectID(i), Rect: r})
				u, err := idx.Insert(r, rtree.ObjectID(i))
				if err != nil {
					t.Fatal(err)
				}
				stats = stats.Add(u)
			}
			if idx.Tree().Len() != 700 {
				t.Fatalf("Len = %d, want 700", idx.Tree().Len())
			}
			if err := idx.Validate(); err != nil {
				t.Fatalf("clip table invalid after inserts: %v", err)
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("tree invalid after inserts: %v", err)
			}
			// Clipped queries still agree with brute force.
			for q := 0; q < 100; q++ {
				query := randRect(rng, 2, 1000, 50)
				want := 0
				for _, it := range items {
					if it.Rect.Intersects(query) {
						want++
					}
				}
				if got := countClipped(idx, query); got != want {
					t.Fatalf("query %v: got %d, want %d", query, got, want)
				}
			}
			if stats.Inserts != 300 {
				t.Errorf("Inserts = %d, want 300", stats.Inserts)
			}
			if stats.TotalReclips() == 0 {
				t.Error("300 inserts into a small-fanout tree should trigger some re-clips")
			}
			if stats.ReclipsPerInsert() <= 0 {
				t.Error("ReclipsPerInsert should be positive")
			}
		})
	}
}

func TestInsertAvoidsUnnecessaryReclips(t *testing.T) {
	// Inserting an object strictly inside an existing object's rectangle
	// cannot invalidate any clip point and must not force a CBB-only reclip.
	objs := []geom.Rect{
		geom.R(0, 0, 40, 40), geom.R(60, 0, 100, 40), geom.R(0, 60, 40, 100),
	}
	tree := rtree.MustNew(smallConfig(2, rtree.Quadratic))
	for i, r := range objs {
		_, _ = tree.Insert(r, rtree.ObjectID(i))
	}
	idx, err := New(tree, core.Params{K: 8, Tau: 0, Method: core.MethodStairline})
	if err != nil {
		t.Fatal(err)
	}
	// Strictly inside the first object: no MBB change, no dead-space
	// intrusion.
	s, err := idx.Insert(geom.R(10, 10, 20, 20), 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.ReclipsByCBB != 0 {
		t.Errorf("nested insert should not cause a CBB-only reclip: %+v", s)
	}
	if s.AvoidedReclips == 0 {
		t.Errorf("validity check should have been recorded as avoided: %+v", s)
	}
	// Now insert into the empty centre (dead space of the root): the root's
	// clip points must be recomputed or the new object would be hidden.
	if _, err := idx.Insert(geom.R(45, 45, 55, 55), 101); err != nil {
		t.Fatal(err)
	}
	if got := countClipped(idx, geom.R(44, 44, 56, 56)); got != 1 {
		t.Fatalf("object inserted into former dead space not found: got %d", got)
	}
	if err := idx.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteLazyMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tree, items := buildClusteredTree(t, rng, rtree.RStar, 600)
	idx, err := New(tree, core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	var s UpdateStats
	for i := 0; i < 300; i++ {
		u, err := idx.Delete(items[i].Rect, items[i].Object)
		if err != nil || u.Deletes != 1 {
			t.Fatalf("delete %d: %+v %v", i, u, err)
		}
		s = s.Add(u)
	}
	if u, _ := idx.Delete(geom.R(0, 0, 1, 1), 999999); u.Deletes != 0 {
		t.Error("deleting a missing object should report false")
	}
	if idx.Tree().Len() != 300 {
		t.Fatalf("Len = %d", idx.Tree().Len())
	}
	if err := idx.Validate(); err != nil {
		t.Fatalf("clip table invalid after deletes: %v", err)
	}
	if s.Deletes != 300 {
		t.Errorf("Deletes = %d", s.Deletes)
	}
	if s.DeletesNoReclip == 0 {
		t.Error("some deletions should be absorbed without reclipping")
	}
	// Queries remain correct (remaining objects only).
	for q := 0; q < 50; q++ {
		query := randRect(rng, 2, 1000, 80)
		want := 0
		for _, it := range items[300:] {
			if it.Rect.Intersects(query) {
				want++
			}
		}
		if got := countClipped(idx, query); got != want {
			t.Fatalf("query %v after deletes: got %d want %d", query, got, want)
		}
	}
}

func TestTableStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tree, _ := buildClusteredTree(t, rng, rtree.Quadratic, 500)
	idx, err := New(tree, core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	nodes, points, bytes := idx.Snap().ClipStats()
	if points == 0 {
		t.Fatal("expected clip points on clustered sliver data")
	}
	if avg := float64(points) / float64(nodes); avg > float64(idx.Params().K) {
		t.Errorf("%g clip points per clipped node, more than K", avg)
	}
	if bytes != len(idx.EncodeClips(2, nil)) || bytes != idx.AuxBytes() {
		t.Errorf("ClipStats gives %d bytes, the encoding %d, AuxBytes %d", bytes, len(idx.EncodeClips(2, nil)), idx.AuxBytes())
	}
	empty, err := New(rtree.MustNew(smallConfig(2, rtree.Quadratic)), core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if nodes, points, bytes := empty.Snap().ClipStats(); nodes != 0 || points != 0 || bytes != 0 {
		t.Errorf("empty index: ClipStats = %d, %d, %d", nodes, points, bytes)
	}
}

func TestEncodeDecodeTable(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tree, _ := buildClusteredTree(t, rng, rtree.RRStar, 400)
	idx, err := New(tree, core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	buf := idx.EncodeClips(2, nil)
	if len(buf) != idx.AuxBytes() {
		t.Error("AuxBytes should equal encoded size")
	}
	back, dims, err := DecodeClips(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dims != 2 {
		t.Errorf("decoded dims = %d", dims)
	}
	if want := records(idx); len(want) == 0 || !reflect.DeepEqual(back, want) {
		t.Fatalf("decoded %d records, not the %d the index holds", len(back), len(want))
	}
}

func TestDecodeTableErrors(t *testing.T) {
	if _, _, err := DecodeClips(nil, nil); err == nil {
		t.Error("nil buffer must fail")
	}
	if _, _, err := DecodeClips([]byte{1, 2, 3}, nil); err == nil {
		t.Error("short buffer must fail")
	}
	// Corrupt dims.
	bad := make([]byte, 8)
	bad[0] = 200
	if _, _, err := DecodeClips(bad, nil); err == nil {
		t.Error("implausible dims must fail")
	}
	// Truncated clip point.
	tree := rtree.MustNew(smallConfig(2, rtree.Quadratic))
	for i := 0; i < 30; i++ {
		_, _ = tree.Insert(geom.R(float64(i), 0, float64(i)+5, 1), rtree.ObjectID(i))
	}
	idx, _ := New(tree, core.Params{K: 8, Tau: 0, Method: core.MethodStairline})
	buf := idx.EncodeClips(2, nil)
	if len(buf) > 16 {
		if _, _, err := DecodeClips(buf[:len(buf)-3], nil); err == nil {
			t.Error("truncated table must fail")
		}
	}
}

func TestSaveAux(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tree, _ := buildClusteredTree(t, rng, rtree.RStar, 600)
	idx, err := New(tree, core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	pager := storage.NewImage(512)
	pages, err := idx.SaveAux(pager)
	if err != nil {
		t.Fatal(err)
	}
	if pages == 0 {
		t.Fatal("expected at least one auxiliary page")
	}
	usage := pager.Usage()
	if usage.Pages[storage.KindAux] != pages {
		t.Errorf("pager reports %d aux pages, SaveAux returned %d", usage.Pages[storage.KindAux], pages)
	}
	if usage.Bytes[storage.KindAux] != idx.AuxBytes() {
		t.Errorf("aux bytes %d != AuxBytes %d", usage.Bytes[storage.KindAux], idx.AuxBytes())
	}
}

func TestClipPointBytes(t *testing.T) {
	if ClipPointBytes(2) != 20 || ClipPointBytes(3) != 28 {
		t.Error("ClipPointBytes wrong")
	}
}

// Property: after any sequence of clipped-index inserts, a full-space query
// through the clipped path returns every object exactly once.
func TestInsertNeverLosesObjects(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tree := rtree.MustNew(smallConfig(3, rtree.RRStar))
	idx, err := New(tree, core.DefaultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	n := 500
	for i := 0; i < n; i++ {
		r := randRect(rng, 3, 200, 15)
		if _, err := idx.Insert(r, rtree.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[rtree.ObjectID]int)
	idx.Search(geom.R(-10, -10, -10, 250, 250, 250), func(id rtree.ObjectID, _ geom.Rect) bool {
		seen[id]++
		return true
	})
	if len(seen) != n {
		t.Fatalf("full query found %d of %d objects", len(seen), n)
	}
	for id, count := range seen {
		if count != 1 {
			t.Fatalf("object %d returned %d times", id, count)
		}
	}
	if err := idx.Validate(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClippedSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tree, _ := buildClusteredTree(b, rng, rtree.RStar, 5000)
	idx, err := New(tree, core.DefaultParams(2))
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]geom.Rect, 256)
	for i := range queries {
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		queries[i] = geom.MustRect(c, c.Add(geom.Pt(5, 5)))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx.Search(queries[i%len(queries)], func(rtree.ObjectID, geom.Rect) bool { return true })
	}
}

func BenchmarkUnclippedSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tree, _ := buildClusteredTree(b, rng, rtree.RStar, 5000)
	queries := make([]geom.Rect, 256)
	for i := range queries {
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		queries[i] = geom.MustRect(c, c.Add(geom.Pt(5, 5)))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree.CurrentVersion().Search(queries[i%len(queries)], func(rtree.ObjectID, geom.Rect) bool { return true })
	}
}

// countClipped counts the objects intersecting q on the clipped search path.
func countClipped(idx *Index, q geom.Rect) int {
	n := 0
	idx.Search(q, func(rtree.ObjectID, geom.Rect) bool { n++; return true })
	return n
}

// TestValidateFlagsClipsThatHideObjects restores clip tables whose root clip
// point <(3.9, 3.9), 00> certifies as dead a corner of [0,10]² that holds an
// object of zero or tiny volume — a point, a segment, a box of side 1e-5 —
// so the clipped search misses it, and holds Validate to rejecting each; an
// object that only touches the clip point is not hidden and passes.
func TestValidateFlagsClipsThatHideObjects(t *testing.T) {
	frame := []geom.Rect{geom.R(0, 5, 1, 10), geom.R(5, 0, 10, 1), geom.R(9, 9, 10, 10)}
	for _, c := range []struct {
		name   string
		obj    geom.Rect
		hidden bool
	}{
		{"point", geom.R(2, 2, 2, 2), true},
		{"segment", geom.R(1, 2, 3, 2), true},
		{"small", geom.R(2, 2, 2+1e-5, 2+1e-5), true},
		{"touching", geom.R(3.9, 2, 4, 2), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			tree := rtree.MustNew(smallConfig(2, rtree.Quadratic))
			for i, r := range append(frame, c.obj) {
				if _, err := tree.Insert(r, rtree.ObjectID(i)); err != nil {
					t.Fatal(err)
				}
			}
			var root rtree.NodeID
			tree.Walk(func(info rtree.NodeInfo) {
				if info.Parent == rtree.InvalidNode {
					root = info.ID
				}
			})
			rec := core.NewRecord([]core.ClipPoint{{Coord: geom.Pt(3.9, 3.9), Mask: 0}}, 2)
			tree.SetRecord(root, rec)
			idx, err := Restore(tree, core.DefaultParams(2), Table{root: rec})
			if err != nil {
				t.Fatal(err)
			}
			q := geom.R(c.obj.Lo[0]-0.1, c.obj.Lo[1]-0.1, c.obj.Lo[0]+0.1, c.obj.Lo[1]+0.1)
			if got, want := countClipped(idx, q), tree.Count(q); (got == 0) != c.hidden || want != 1 {
				t.Fatalf("clipped search found %d, unclipped %d", got, want)
			}
			if err := idx.Validate(); (err != nil) != c.hidden {
				t.Fatalf("Validate = %v for a clip table that hides the object: %v", err, c.hidden)
			}
		})
	}
}
