package cbb

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

// conformReader is the query surface all four public index types share.
type conformReader interface {
	Reader
	Len() int
	Bounds() Rect
	Search(q Rect, visit func(ObjectID, Rect) bool)
	SearchAll(q Rect) []Item
	Count(q Rect) int
	NearestNeighbors(k int, p Point) []Neighbor
}

// conformCase is one reader under test plus its BatchSearch (a package-level
// function for *Tree, a method everywhere else).
type conformCase struct {
	name  string
	r     conformReader
	batch func([]Rect, BatchOptions) (BatchResult, error)
}

// conformReaders builds the same content — bulk load, a batch insert, a few
// deletes — behind a Tree, a View, a 1- and a 4-shard ShardedTree and a
// ShardedView, and returns the surviving items as the oracle.
func conformReaders(t *testing.T, clip ClipMethod, seed int64, n int) ([]conformCase, []Item, *Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	items := randShardItems(rng, n, 2)
	bulk, extra := items[:n*3/4], items[n*3/4:]
	gone := map[ObjectID]bool{}
	for i := 0; i < n/10; i++ {
		gone[items[rng.Intn(n)].Object] = true
	}
	type writer interface {
		BulkLoad([]Item) error
		InsertItems([]Item) error
		Delete(Rect, ObjectID) (bool, error)
	}
	fill := func(w writer) {
		t.Helper()
		if err := w.BulkLoad(bulk); err != nil {
			t.Fatal(err)
		}
		if err := w.InsertItems(extra); err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if gone[it.Object] {
				if ok, err := w.Delete(it.Rect, it.Object); err != nil || !ok {
					t.Fatalf("delete %d: found=%v err=%v", it.Object, ok, err)
				}
			}
		}
	}
	opts := Options{Dims: 2, MaxEntries: 16, MinEntries: 6, Clipping: clip, Universe: shardUniverse(2)}
	tree, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	fill(tree)
	view := tree.Snapshot()
	t.Cleanup(view.Close)
	cases := []conformCase{
		{"Tree", tree, func(qs []Rect, o BatchOptions) (BatchResult, error) { return BatchSearch(tree, qs, o) }},
		{"View", view, view.BatchSearch},
	}
	for _, shards := range []int{1, 4} {
		st, err := NewSharded(ShardedOptions{Options: opts, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		fill(st)
		if err := st.Validate(); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, conformCase{fmt.Sprintf("ShardedTree/%d", shards), st, st.BatchSearch})
		if shards == 4 {
			sv := st.Snapshot()
			t.Cleanup(sv.Close)
			cases = append(cases, conformCase{"ShardedView", sv, sv.BatchSearch})
		}
	}
	var live []Item
	for _, it := range items {
		if !gone[it.Object] {
			live = append(live, it)
		}
	}
	return cases, live, tree
}

func objectsOf(items []Item) []ObjectID {
	ids := make([]ObjectID, len(items))
	for i, it := range items {
		ids[i] = it.Object
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sameObjects(a, b []ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReaderConformance checks every query of every public reader type
// against a brute-force scan of the same items, for every clip method — the
// one read path must answer identically whether it runs over one snapshot or
// N, pinned or not, with a full clip table or an empty one.
func TestReaderConformance(t *testing.T) {
	for _, clip := range []ClipMethod{ClipStairline, ClipSkyline, ClipNone} {
		t.Run(clip.String(), func(t *testing.T) {
			cases, live, tree := conformReaders(t, clip, 71, 1200)
			rng := rand.New(rand.NewSource(72))
			queries := randShardQueries(rng, 30, 2)
			queries = append(queries, R(-50, -50, -10, -10), tree.Bounds()) // misses every root; covers everything
			want := make([][]ObjectID, len(queries))
			for i, q := range queries {
				var hit []Item
				for _, it := range live {
					if it.Rect.Intersects(q) {
						hit = append(hit, it)
					}
				}
				want[i] = objectsOf(hit)
			}
			points := []Point{Pt(0, 0), Pt(500, 500), Pt(999, 1), Pt(250, 750), Pt(-20, 1200)}
			const k = 12

			// The other input of the joins: a second data set behind a View
			// and a ShardedView, so every reader is joined with a single
			// tree on its right and a sharded engine on its left (the mixed
			// View × ShardedView combinations included).
			others, probes, _ := conformReaders(t, clip, 73, 300)
			otherView, otherSharded := others[1].r, others[4].r
			var wantPairs int64
			for _, a := range live {
				for _, b := range probes {
					if a.Rect.Intersects(b.Rect) {
						wantPairs++
					}
				}
			}

			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					r := c.r
					if r.Len() != len(live) {
						t.Fatalf("Len = %d, want %d", r.Len(), len(live))
					}
					if !r.Bounds().Equal(tree.Bounds()) {
						t.Fatalf("Bounds = %v, want %v", r.Bounds(), tree.Bounds())
					}
					for i, q := range queries {
						if got := objectsOf(r.SearchAll(q)); !sameObjects(got, want[i]) {
							t.Fatalf("query %d: SearchAll found %d objects, brute force %d", i, len(got), len(want[i]))
						}
						if got := r.Count(q); got != len(want[i]) {
							t.Fatalf("query %d: Count = %d, want %d", i, got, len(want[i]))
						}
						calls := 0
						r.Search(q, func(ObjectID, Rect) bool { calls++; return false })
						if stop := min(1, len(want[i])); calls != stop {
							t.Fatalf("query %d: visit returning false was called %d times, want %d", i, calls, stop)
						}
					}
					if n := r.Count(R(0, 0, 0, 10, 10, 10)); n != 0 {
						t.Fatalf("3-d query on a 2-d index matched %d objects", n)
					}
					for _, p := range points {
						dists := make([]float64, len(live))
						for i, it := range live {
							dists[i] = it.Rect.MinDistSq(p)
						}
						sort.Float64s(dists)
						got := r.NearestNeighbors(k, p)
						if len(got) != k {
							t.Fatalf("kNN at %v: %d results, want %d", p, len(got), k)
						}
						for i, nb := range got {
							if nb.DistSq != dists[i] || nb.Rect.MinDistSq(p) != nb.DistSq {
								t.Fatalf("kNN at %v rank %d: dist² %g, brute force %g", p, i, nb.DistSq, dists[i])
							}
						}
					}
					var seqIO IOStats
					for _, workers := range []int{1, 3} {
						res, err := c.batch(queries, BatchOptions{Workers: workers, Collect: true})
						if err != nil {
							t.Fatal(err)
						}
						for i := range queries {
							if res.Counts[i] != len(want[i]) || !sameObjects(objectsOf(res.Items[i]), want[i]) {
								t.Fatalf("BatchSearch workers=%d query %d: count %d, want %d", workers, i, res.Counts[i], len(want[i]))
							}
						}
						if workers == 1 {
							seqIO = res.IO
						} else if res.IO != seqIO {
							t.Fatalf("BatchSearch workers=%d IO %+v, sequential %+v", workers, res.IO, seqIO)
						}
					}
					// The edges of a batch — nothing to run, more workers than
					// queries, GOMAXPROCS by default, counts without items — and
					// the reader's counter advancing by exactly the reported I/O.
					rd, release := r.acquire()
					ctr := rd[0].Version().Tree().Counter()
					release()
					for _, e := range []struct {
						queries          []Rect
						workers, applied int
					}{
						{nil, 4, 0},
						{queries[:3], 64, 3},
						{queries, 0, min(runtime.GOMAXPROCS(0), len(queries))},
					} {
						before := ctr.Snapshot()
						res, err := c.batch(e.queries, BatchOptions{Workers: e.workers})
						if err != nil {
							t.Fatal(err)
						}
						if res.Workers != e.applied || len(res.Counts) != len(e.queries) || res.Items != nil {
							t.Fatalf("BatchSearch of %d queries, workers=%d: %d workers, %d counts, items %v",
								len(e.queries), e.workers, res.Workers, len(res.Counts), res.Items != nil)
						}
						if got, want := ctr.Snapshot(), before.Add(storage.Snapshot{LeafReads: res.IO.LeafReads, DirReads: res.IO.DirReads}); got != want || res.IO.Writes != 0 || res.IO.Reclips != 0 {
							t.Fatalf("BatchSearch of %d queries moved the counter from %v to %v, reported %+v", len(e.queries), before, got, res.IO)
						}
					}
					for _, workers := range []int{1, 3} {
						opts := JoinOptions{Workers: workers}
						var mu sync.Mutex
						seen := int64(0)
						res, err := JoinItems(r, probes, opts, func(JoinPair) { mu.Lock(); seen++; mu.Unlock() })
						if err != nil {
							t.Fatal(err)
						}
						if res.Pairs != wantPairs || seen != wantPairs {
							t.Fatalf("JoinItems workers=%d: %d pairs (%d visited), brute force %d", workers, res.Pairs, seen, wantPairs)
						}
						if res, err = Join(r, otherView, opts, nil); err != nil || res.Pairs != wantPairs {
							t.Fatalf("Join(reader, View) workers=%d: %d pairs, err %v, brute force %d", workers, res.Pairs, err, wantPairs)
						}
						if res, err = Join(otherSharded, r, opts, nil); err != nil || res.Pairs != wantPairs {
							t.Fatalf("Join(ShardedView, reader) workers=%d: %d pairs, err %v, brute force %d", workers, res.Pairs, err, wantPairs)
						}
					}
				})
			}

			// Tree and View read the same snapshot of the same tree: beyond
			// agreeing with the oracle they must visit objects in the same
			// order and charge the same node accesses.
			trace := func(r conformReader) ([]ObjectID, IOStats) {
				tree.ResetIOStats()
				var order []ObjectID
				for _, q := range queries {
					r.Search(q, func(id ObjectID, _ Rect) bool { order = append(order, id); return true })
				}
				for _, p := range points {
					for _, nb := range r.NearestNeighbors(k, p) {
						order = append(order, nb.Object)
					}
				}
				return order, tree.IOStats()
			}
			treeOrder, treeIO := trace(cases[0].r)
			viewOrder, viewIO := trace(cases[1].r)
			if !sameObjects(treeOrder, viewOrder) || treeIO != viewIO {
				t.Fatalf("Tree and View disagree: %d vs %d visits, IO %+v vs %+v", len(treeOrder), len(viewOrder), treeIO, viewIO)
			}
		})
	}
}

// TestClipNoneIsPlainRTree pins "unclipped is an empty clip table": a
// ClipNone tree charges exactly the node accesses of the plain R-tree
// descent on the same version, never reclips, stores no clip points, and
// round-trips through a snapshot that has no clip section.
func TestClipNoneIsPlainRTree(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	items := randShardItems(rng, 2000, 2)
	tree, err := New(Options{Dims: 2, MaxEntries: 16, MinEntries: 6, Clipping: ClipNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(items[:1200]); err != nil {
		t.Fatal(err)
	}
	if err := tree.InsertItems(items[1200:]); err != nil {
		t.Fatal(err)
	}
	for _, it := range items[:200] {
		if ok, err := tree.Delete(it.Rect, it.Object); err != nil || !ok {
			t.Fatalf("delete %d: found=%v err=%v", it.Object, ok, err)
		}
	}
	if io := tree.IOStats(); io.Reclips != 0 {
		t.Errorf("ClipNone tree reclipped %d times", io.Reclips)
	}
	if s := tree.Stats(); s.ClipPoints != 0 || s.ClipTableBytes != 0 || s.AvgClipPoints != 0 {
		t.Errorf("ClipNone tree reports a clip table: %+v", s)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}

	plain := tree.tree.CurrentVersion()
	count := func(ObjectID, Rect) bool { return true }
	queries := append(randShardQueries(rng, 200, 2), tree.Bounds())
	for i, q := range queries {
		if !plain.RootMBBIntersects(q) {
			continue
		}
		want, err := plain.SearchCounted(q, new(storage.Counter), count)
		if err != nil {
			t.Fatal(err)
		}
		tree.ResetIOStats()
		tree.Search(q, count)
		if got, w := tree.IOStats(), toIOStats(want); got != w {
			t.Fatalf("query %d: ClipNone charged %+v, the plain descent %+v", i, got, w)
		}
	}
	// The one difference: a query that misses the root MBB is answered by
	// the free pre-check instead of a charged root read.
	tree.ResetIOStats()
	tree.Search(R(-100, -100, -50, -50), count)
	if io := tree.IOStats(); io != (IOStats{}) {
		t.Errorf("query missing the root MBB charged %+v", io)
	}

	var buf bytes.Buffer
	if err := tree.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap, _, err := snapshot.LoadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.ClipMethod != snapshot.ClipNone || len(snap.Table) != 0 || snap.Layout.ClipPages != 0 || snap.Layout.ClipBytes != 0 {
		t.Errorf("ClipNone snapshot carries a clip section: method %d, %d table nodes, layout %+v", snap.Meta.ClipMethod, len(snap.Table), snap.Layout)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Options().Clipping != ClipNone || loaded.Len() != tree.Len() {
		t.Errorf("loaded tree: clipping %s, %d objects; want none, %d", loaded.Options().Clipping, loaded.Len(), tree.Len())
	}
	if s := loaded.Stats(); s.ClipPoints != 0 || s.ClipTableBytes != 0 {
		t.Errorf("loaded ClipNone tree reports a clip table: %+v", s)
	}
}

// TestStatsConcurrentWithIngest is the regression test for GET /stats racing
// ingest: Stats (single tree and sharded) reads only published snapshots, so
// it may run while writers insert. Run with -race; before Stats moved off
// the writer's arena and clip map this reported a data race.
func TestStatsConcurrentWithIngest(t *testing.T) {
	opts := Options{Dims: 2, MaxEntries: 16, MinEntries: 6, Universe: shardUniverse(2)}
	tree, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewSharded(ShardedOptions{Options: opts, Shards: 2, SplitAbove: 400})
	if err != nil {
		t.Fatal(err)
	}
	items := randShardItems(rand.New(rand.NewSource(91)), 1500, 2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, it := range items {
			if err := tree.Insert(it.Rect, it.Object); err != nil {
				t.Error(err)
				return
			}
			if err := st.Insert(it.Rect, it.Object); err != nil {
				t.Error(err)
				return
			}
			if i%100 == 99 {
				if _, err := tree.Delete(it.Rect, it.Object); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true
		default:
		}
		if s := tree.Stats(); s.Objects > len(items) {
			t.Fatalf("tree stats: %+v", s)
		}
		if s := st.Stats(); s.Objects > len(items) {
			t.Fatalf("sharded stats: %+v", s)
		}
	}
	wg.Wait()
	if s := tree.Stats(); s.Objects != tree.Len() || s.ClipPoints == 0 || s.PlaneBytes == 0 {
		t.Fatalf("final tree stats: %+v", s)
	}
	if s := st.Stats(); s.Objects != len(items) || s.ClipPoints == 0 {
		t.Fatalf("final sharded stats: %+v", s)
	}
}
