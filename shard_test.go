package cbb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// --- helpers ----------------------------------------------------------------

func shardUniverse(dims int) Rect {
	lo := make(Point, dims)
	hi := make(Point, dims)
	for d := 0; d < dims; d++ {
		hi[d] = 1000
	}
	return Rect{Lo: lo, Hi: hi}
}

func randShardItems(rng *rand.Rand, n, dims int) []Item {
	items := make([]Item, n)
	for i := range items {
		lo := make(Point, dims)
		hi := make(Point, dims)
		for d := 0; d < dims; d++ {
			lo[d] = rng.Float64() * 990
			hi[d] = lo[d] + rng.Float64()*10
		}
		items[i] = Item{Object: ObjectID(i + 1), Rect: Rect{Lo: lo, Hi: hi}}
	}
	return items
}

func randShardQueries(rng *rand.Rand, n, dims int) []Rect {
	qs := make([]Rect, n)
	for i := range qs {
		lo := make(Point, dims)
		hi := make(Point, dims)
		for d := 0; d < dims; d++ {
			lo[d] = rng.Float64() * 960
			hi[d] = lo[d] + 40
		}
		qs[i] = Rect{Lo: lo, Hi: hi}
	}
	return qs
}

func sortItems(items []Item) {
	sort.Slice(items, func(i, j int) bool { return items[i].Object < items[j].Object })
}

func sortPairs(ps []JoinPair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Left != ps[j].Left {
			return ps[i].Left < ps[j].Left
		}
		return ps[i].Right < ps[j].Right
	})
}

// assertShardedMatches checks that the sharded tree answers every query
// type identically to the reference single tree.
func assertShardedMatches(t *testing.T, ref *Tree, st *ShardedTree, queries []Rect, dims int) {
	t.Helper()
	if ref.Len() != st.Len() {
		t.Fatalf("Len: sharded %d, single %d", st.Len(), ref.Len())
	}
	if !ref.Bounds().Equal(st.Bounds()) {
		t.Fatalf("Bounds: sharded %v, single %v", st.Bounds(), ref.Bounds())
	}
	for i, q := range queries {
		want := ref.SearchAll(q)
		got := st.SearchAll(q)
		sortItems(want)
		sortItems(got)
		if len(want) != len(got) {
			t.Fatalf("query %d: sharded found %d, single %d", i, len(got), len(want))
		}
		for k := range want {
			if want[k].Object != got[k].Object || !want[k].Rect.Equal(got[k].Rect) {
				t.Fatalf("query %d item %d: sharded %v, single %v", i, k, got[k], want[k])
			}
		}
		if ref.Count(q) != st.Count(q) {
			t.Fatalf("query %d: Count mismatch", i)
		}
	}
	// KNN at a few pivots: the answer does not depend on the shard count.
	for trial := 0; trial < 5; trial++ {
		p := make(Point, dims)
		for d := range p {
			p[d] = float64(trial) * 200
		}
		if want, got := ref.NearestNeighbors(10, p), st.NearestNeighbors(10, p); !reflect.DeepEqual(want, got) {
			t.Fatalf("KNN at %v: sharded %+v, single %+v", p, got, want)
		}
	}
}

// --- options ----------------------------------------------------------------

func TestShardedOptionsValidation(t *testing.T) {
	if _, err := NewSharded(ShardedOptions{Options: Options{Dims: 2}}); err == nil {
		t.Error("missing Universe must be rejected")
	}
	if _, err := NewSharded(ShardedOptions{Options: Options{Dims: 2, Universe: shardUniverse(3)}}); err == nil {
		t.Error("Universe dims mismatch must be rejected")
	}
	if _, err := NewSharded(ShardedOptions{Options: Options{Dims: 2, Universe: shardUniverse(2)}, Shards: -1}); err == nil {
		t.Error("negative Shards must be rejected")
	}
	if _, err := NewSharded(ShardedOptions{Options: Options{Dims: 2, Universe: shardUniverse(2)}, SplitAbove: 100, MergeBelow: 100}); err == nil {
		t.Error("MergeBelow >= SplitAbove must be rejected")
	}
	st, err := NewSharded(ShardedOptions{Options: Options{Dims: 2, Universe: shardUniverse(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShards() != 4 {
		t.Errorf("default shard count = %d, want 4", st.NumShards())
	}
	if st.Options().HilbertBits != 16 {
		t.Errorf("default HilbertBits = %d, want 16", st.Options().HilbertBits)
	}
	// Clamping: 30 dims forces 63/30 = 2 bits.
	st30, err := NewSharded(ShardedOptions{Options: Options{Dims: 30, Universe: shardUniverse(30)}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st30.Options().HilbertBits != 2 {
		t.Errorf("30-dim HilbertBits = %d, want 2", st30.Options().HilbertBits)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

// --- correctness equivalence matrix ----------------------------------------

func TestShardedEquivalenceMatrix(t *testing.T) {
	for dims := 1; dims <= 3; dims++ {
		for _, clip := range []ClipMethod{ClipNone, ClipSkyline, ClipStairline} {
			t.Run(fmt.Sprintf("dims%d-%v", dims, clip), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(dims*100) + int64(clip)))
				items := randShardItems(rng, 800, dims)
				queries := randShardQueries(rng, 30, dims)
				base := Options{Dims: dims, Clipping: clip, MaxEntries: 16, MinEntries: 6, Universe: shardUniverse(dims)}

				ref, err := New(base)
				if err != nil {
					t.Fatal(err)
				}
				st, err := NewSharded(ShardedOptions{Options: base, Shards: 5})
				if err != nil {
					t.Fatal(err)
				}
				for _, it := range items {
					if err := ref.Insert(it.Rect, it.Object); err != nil {
						t.Fatal(err)
					}
					if err := st.Insert(it.Rect, it.Object); err != nil {
						t.Fatal(err)
					}
				}
				assertShardedMatches(t, ref, st, queries, dims)

				// Delete a third from both; equivalence must survive.
				for i := 0; i < len(items); i += 3 {
					fr, err := ref.Delete(items[i].Rect, items[i].Object)
					if err != nil {
						t.Fatal(err)
					}
					fs, err := st.Delete(items[i].Rect, items[i].Object)
					if err != nil {
						t.Fatal(err)
					}
					if fr != fs {
						t.Fatalf("Delete(%d): sharded found=%v, single found=%v", items[i].Object, fs, fr)
					}
				}
				assertShardedMatches(t, ref, st, queries, dims)

				// Forced splits on every shard, then equivalence again.
				for i := st.NumShards() - 1; i >= 0; i-- {
					if err := st.SplitShard(i); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Validate(); err != nil {
					t.Fatal(err)
				}
				assertShardedMatches(t, ref, st, queries, dims)

				// Forced merges back down, then equivalence again.
				for st.NumShards() > 2 {
					if err := st.MergeShards(0); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Validate(); err != nil {
					t.Fatal(err)
				}
				assertShardedMatches(t, ref, st, queries, dims)

				splits, merges := st.RebalanceStats()
				if splits == 0 || merges == 0 {
					t.Fatalf("rebalance stats: splits=%d merges=%d, want both > 0", splits, merges)
				}
			})
		}
	}
}

func TestShardedIngestPathsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := randShardItems(rng, 1200, 2)
	queries := randShardQueries(rng, 20, 2)
	base := Options{Dims: 2, MaxEntries: 16, MinEntries: 6, Universe: shardUniverse(2)}

	ref, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.BulkLoad(items); err != nil {
		t.Fatal(err)
	}

	viaItems, err := NewSharded(ShardedOptions{Options: base, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := viaItems.InsertItems(items); err != nil {
		t.Fatal(err)
	}
	assertShardedMatches(t, ref, viaItems, queries, 2)

	viaBulk, err := NewSharded(ShardedOptions{Options: base, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := viaBulk.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	assertShardedMatches(t, ref, viaBulk, queries, 2)

	viaBatch, err := NewSharded(ShardedOptions{Options: base, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := viaBatch.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := b.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	assertShardedMatches(t, ref, viaBatch, queries, 2)
}

// --- batches and views -------------------------------------------------------

func TestShardedBatchAtomicity(t *testing.T) {
	base := Options{Dims: 2, Universe: shardUniverse(2)}
	st, err := NewSharded(ShardedOptions{Options: base, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	items := randShardItems(rng, 200, 2)

	// Rollback: nothing becomes visible.
	b, err := st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := b.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
	}
	b.Rollback()
	if st.Len() != 0 {
		t.Fatalf("rolled-back batch leaked %d objects", st.Len())
	}

	// Commit: a view pinned before sees nothing, one pinned after sees all.
	before := st.Snapshot()
	defer before.Close()
	b, err = st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := b.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
	}
	if before.Len() != 0 {
		t.Fatal("open batch visible to a pinned view")
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	after := st.Snapshot()
	defer after.Close()
	if before.Len() != 0 {
		t.Fatalf("pre-commit view sees %d objects after commit", before.Len())
	}
	if after.Len() != len(items) {
		t.Fatalf("post-commit view sees %d objects, want %d", after.Len(), len(items))
	}

	// Double finish errors.
	if err := b.Commit(); err == nil {
		t.Error("second Commit must fail")
	}

	// Batch delete round-trip.
	b, err = st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	found, err := b.Delete(items[0].Rect, items[0].Object)
	if err != nil || !found {
		t.Fatalf("batch Delete: %v %v", found, err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(items)-1 {
		t.Fatalf("Len after batch delete = %d", st.Len())
	}
}

func TestShardedViewPinnedAcrossSplit(t *testing.T) {
	base := Options{Dims: 2, MaxEntries: 16, MinEntries: 6, Universe: shardUniverse(2)}
	st, err := NewSharded(ShardedOptions{Options: base, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	items := randShardItems(rng, 500, 2)
	if err := st.InsertItems(items); err != nil {
		t.Fatal(err)
	}

	v := st.Snapshot()
	defer v.Close()
	epochs := v.Epochs()
	wantLen := v.Len()
	q := R(0, 0, 1000, 1000)
	want := v.SearchAll(q)
	sortItems(want)

	// Split every shard, then mutate heavily.
	for i := st.NumShards() - 1; i >= 0; i-- {
		if err := st.SplitShard(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		lo := Pt(rng.Float64()*990, rng.Float64()*990)
		if err := st.Insert(Rect{Lo: lo, Hi: Pt(lo[0]+5, lo[1]+5)}, ObjectID(10000+i)); err != nil {
			t.Fatal(err)
		}
	}

	// The pinned view is frozen: same epochs, same content.
	for i, e := range v.Epochs() {
		if e != epochs[i] {
			t.Fatalf("epoch of shard %d moved from %d to %d under a pin", i, epochs[i], e)
		}
	}
	if v.Len() != wantLen {
		t.Fatalf("pinned view Len moved from %d to %d", wantLen, v.Len())
	}
	got := v.SearchAll(q)
	sortItems(got)
	if len(got) != len(want) {
		t.Fatalf("pinned view result changed: %d vs %d items", len(got), len(want))
	}
	for k := range want {
		if got[k].Object != want[k].Object {
			t.Fatalf("pinned view item %d changed", k)
		}
	}
	// The live tree meanwhile serves the new state.
	if st.Len() != len(items)+200 {
		t.Fatalf("live Len = %d, want %d", st.Len(), len(items)+200)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedBatchSearchMatchesSequential(t *testing.T) {
	base := Options{Dims: 2, MaxEntries: 16, MinEntries: 6, Universe: shardUniverse(2)}
	st, err := NewSharded(ShardedOptions{Options: base, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	if err := st.InsertItems(randShardItems(rng, 1000, 2)); err != nil {
		t.Fatal(err)
	}
	queries := randShardQueries(rng, 50, 2)
	res, err := st.BatchSearch(queries, BatchOptions{Workers: 4, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want := st.SearchAll(q)
		if res.Counts[i] != len(want) {
			t.Fatalf("query %d: batch count %d, sequential %d", i, res.Counts[i], len(want))
		}
		got := append([]Item(nil), res.Items[i]...)
		sortItems(got)
		sortItems(want)
		for k := range want {
			if got[k].Object != want[k].Object {
				t.Fatalf("query %d item %d mismatch", i, k)
			}
		}
	}
	if res.IO.LeafReads+res.IO.DirReads == 0 {
		t.Error("batch reported no I/O")
	}
}

// --- skew-driven rebalancing -------------------------------------------------

func TestShardedAutoSplitAndMerge(t *testing.T) {
	base := Options{Dims: 2, MaxEntries: 16, MinEntries: 6, Universe: shardUniverse(2)}
	st, err := NewSharded(ShardedOptions{Options: base, Shards: 2, SplitAbove: 200, MergeBelow: 20})
	if err != nil {
		t.Fatal(err)
	}
	// A hot cluster in one corner swamps one shard until it splits.
	rng := rand.New(rand.NewSource(19))
	var items []Item
	for i := 0; i < 1200; i++ {
		lo := Pt(rng.Float64()*50, rng.Float64()*50)
		items = append(items, Item{Object: ObjectID(i + 1), Rect: Rect{Lo: lo, Hi: Pt(lo[0]+2, lo[1]+2)}})
	}
	for _, it := range items {
		if err := st.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
	}
	splits, _ := st.RebalanceStats()
	if splits == 0 {
		t.Fatalf("no automatic split after %d clustered inserts (shards=%d, lens=%v)", len(items), st.NumShards(), st.ShardLens())
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(items) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(items))
	}

	// Deleting almost everything triggers merges.
	for _, it := range items[:1150] {
		if _, err := st.Delete(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
	}
	_, merges := st.RebalanceStats()
	if merges == 0 {
		t.Fatalf("no automatic merge after mass deletion (shards=%d, lens=%v)", st.NumShards(), st.ShardLens())
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 50 {
		t.Fatalf("Len = %d, want 50", st.Len())
	}
}

// --- joins -------------------------------------------------------------------

func TestShardedJoinsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	leftItems := randShardItems(rng, 700, 2)
	rightItems := make([]Item, 500)
	for i := range rightItems {
		lo := Pt(rng.Float64()*990, rng.Float64()*990)
		rightItems[i] = Item{Object: ObjectID(i + 1), Rect: Rect{Lo: lo, Hi: Pt(lo[0]+8, lo[1]+8)}}
	}
	base := Options{Dims: 2, MaxEntries: 16, MinEntries: 6, Universe: shardUniverse(2)}

	refL, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := refL.BulkLoad(leftItems); err != nil {
		t.Fatal(err)
	}
	refR, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := refR.BulkLoad(rightItems); err != nil {
		t.Fatal(err)
	}
	shL, err := NewSharded(ShardedOptions{Options: base, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := shL.InsertItems(leftItems); err != nil {
		t.Fatal(err)
	}
	shR, err := NewSharded(ShardedOptions{Options: base, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := shR.InsertItems(rightItems); err != nil {
		t.Fatal(err)
	}

	// INLJ: sharded index probed with the right items.
	var wantPairs []JoinPair
	wantRes, err := IndexNestedLoopJoin(refL, rightItems, func(p JoinPair) { wantPairs = append(wantPairs, p) })
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var gotPairs []JoinPair
		gotRes, err := JoinItems(shL, rightItems, JoinOptions{Workers: workers}, func(p JoinPair) { gotPairs = append(gotPairs, p) })
		if err != nil {
			t.Fatal(err)
		}
		if gotRes.Pairs != wantRes.Pairs {
			t.Fatalf("INLJ workers=%d: sharded %d pairs, single %d", workers, gotRes.Pairs, wantRes.Pairs)
		}
		sortPairs(gotPairs)
		sortPairs(wantPairs)
		for k := range wantPairs {
			if gotPairs[k] != wantPairs[k] {
				t.Fatalf("INLJ workers=%d: pair %d is %v, want %v", workers, k, gotPairs[k], wantPairs[k])
			}
		}
	}

	// STT: sharded × sharded vs single × single.
	wantPairs = nil
	wantRes, err = SynchronizedTreeTraversalJoin(refL, refR, func(p JoinPair) { wantPairs = append(wantPairs, p) })
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var gotPairs []JoinPair
		gotRes, err := Join(shL, shR, JoinOptions{Workers: workers}, func(p JoinPair) { gotPairs = append(gotPairs, p) })
		if err != nil {
			t.Fatal(err)
		}
		if gotRes.Pairs != wantRes.Pairs {
			t.Fatalf("STT workers=%d: sharded %d pairs, single %d", workers, gotRes.Pairs, wantRes.Pairs)
		}
		sortPairs(gotPairs)
		sortPairs(wantPairs)
		for k := range wantPairs {
			if gotPairs[k] != wantPairs[k] {
				t.Fatalf("STT workers=%d: pair %d is %v, want %v", workers, k, gotPairs[k], wantPairs[k])
			}
		}
	}

	// After forced splits, the joins still agree.
	for i := shL.NumShards() - 1; i >= 0; i-- {
		if err := shL.SplitShard(i); err != nil {
			t.Fatal(err)
		}
	}
	var gotPairs []JoinPair
	gotRes, err := Join(shL, shR, JoinOptions{Workers: 2}, func(p JoinPair) { gotPairs = append(gotPairs, p) })
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.Pairs != wantRes.Pairs {
		t.Fatalf("STT after splits: sharded %d pairs, single %d", gotRes.Pairs, wantRes.Pairs)
	}
}

// --- IO and stats ------------------------------------------------------------

func TestShardedStatsAggregation(t *testing.T) {
	base := Options{Dims: 2, MaxEntries: 16, MinEntries: 6, Universe: shardUniverse(2)}
	st, err := NewSharded(ShardedOptions{Options: base, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	items := randShardItems(rng, 800, 2)
	if err := st.InsertItems(items); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Objects != len(items) || stats.Height == 0 || stats.LeafNodes == 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.ClipPoints == 0 {
		t.Error("clipped sharded tree reports no clip points")
	}
	planes := 0
	for _, sh := range st.dir.Load().shards {
		planes += sh.t.Stats().PlaneBytes
	}
	if stats.PlaneBytes != planes || planes == 0 {
		t.Errorf("PlaneBytes = %d, want the sum over shards %d (> 0)", stats.PlaneBytes, planes)
	}

	st.ResetIOStats()
	if io := st.IOStats(); io.LeafReads != 0 || io.DirReads != 0 {
		t.Fatalf("IOStats after reset: %+v", io)
	}
	st.Search(R(0, 0, 500, 500), func(ObjectID, Rect) bool { return true })
	if io := st.IOStats(); io.LeafReads == 0 {
		t.Fatalf("search charged no leaf reads: %+v", io)
	}

	st.AttachBufferPool(256)
	st.Search(R(0, 0, 500, 500), func(ObjectID, Rect) bool { return true })
	st.Search(R(0, 0, 500, 500), func(ObjectID, Rect) bool { return true })
	bs, ok := st.BufferStats()
	if !ok || bs.Hits == 0 {
		t.Fatalf("buffer stats: %+v ok=%v", bs, ok)
	}
	st.DetachBufferPool()
	if _, ok := st.BufferStats(); ok {
		t.Error("BufferStats ok after detach")
	}
}

// --- persistence -------------------------------------------------------------

func TestShardedPersistenceRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "engine")
	base := Options{Dims: 2, MaxEntries: 16, MinEntries: 6, Universe: shardUniverse(2)}
	st, err := CreateSharded(dir, ShardedOptions{Options: base, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	items := randShardItems(rng, 600, 2)
	if err := st.InsertItems(items); err != nil {
		t.Fatal(err)
	}
	queries := randShardQueries(rng, 20, 2)
	wantCounts := make([]int, len(queries))
	for i, q := range queries {
		wantCounts[i] = st.Count(q)
	}

	// A forced split while file-backed: new shard files + directory rewrite.
	if err := st.SplitShard(0); err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	shardsAtClose := st.NumShards()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumShards() != shardsAtClose {
		t.Fatalf("reopened with %d shards, closed with %d", re.NumShards(), shardsAtClose)
	}
	if re.Len() != len(items) {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), len(items))
	}
	for i, q := range queries {
		if got := re.Count(q); got != wantCounts[i] {
			t.Fatalf("query %d after reopen: %d, want %d", i, got, wantCounts[i])
		}
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}

	// Mutations + Flush survive another reopen.
	extra := Item{Object: 999999, Rect: R(1, 1, 2, 2)}
	if err := re.Insert(extra.Rect, extra.Object); err != nil {
		t.Fatal(err)
	}
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Len() != len(items)+1 {
		t.Fatalf("after flush round-trip Len = %d, want %d", re2.Len(), len(items)+1)
	}
	if got := re2.Count(extra.Rect); got == 0 {
		t.Fatal("flushed insert lost on reopen")
	}

	// The retired pre-split shard file was removed at Close.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := re2.NumShards() + 1; len(entries) != want { // shards + shards.json
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %d entries %v, want %d", len(entries), names, want)
	}

	if _, err := CreateSharded(dir, ShardedOptions{Options: base}); err == nil {
		t.Error("CreateSharded over an existing engine must fail")
	}
}

func TestShardedFlushInMemoryErrors(t *testing.T) {
	st, err := NewSharded(ShardedOptions{Options: Options{Dims: 2, Universe: shardUniverse(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err == nil {
		t.Error("Flush on an in-memory sharded tree must fail")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// The routing key is the Hilbert index of the rectangle's centre, computed
// without allocating the centre: the same key curve.Index(r.Center()) gives,
// for rectangles inside, across and outside the universe, and degenerate.
func TestShardedKeyMatchesCentreIndex(t *testing.T) {
	for _, dims := range []int{1, 2, 3} {
		st, err := NewSharded(ShardedOptions{Options: Options{Dims: dims, Universe: shardUniverse(dims)}})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(dims)))
		rects := make([]Rect, 0, 2002)
		for _, it := range randShardItems(rng, 2000, dims) {
			rects = append(rects, it.Rect)
		}
		far := make(Point, dims)
		for d := range far {
			far[d] = -5000 + 12000*float64(d%2)
		}
		rects = append(rects, Rect{Lo: far, Hi: far}, shardUniverse(dims))
		for _, r := range rects {
			if got, want := st.key(r), st.curve.Index(r.Center()); got != want {
				t.Fatalf("dims %d: key(%v) = %d, Index(centre) = %d", dims, r, got, want)
			}
		}
		if n := testing.AllocsPerRun(100, func() { st.key(rects[0]) }); n != 0 {
			t.Fatalf("dims %d: key allocates %v times a call", dims, n)
		}
	}
}

// A sharded BulkLoad is all or nothing: a non-empty shard anywhere among the
// targets fails the load before any shard is built, whichever position it has
// in the directory, and leaves every shard as it was.
func TestShardedBulkLoadAllOrNothing(t *testing.T) {
	items := randShardItems(rand.New(rand.NewSource(9)), 4000, 2)
	for occupied := 0; occupied < 4; occupied++ {
		st, err := NewSharded(ShardedOptions{Options: Options{Dims: 2, Universe: shardUniverse(2)}, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		d := st.dir.Load()
		var seed Item
		for _, it := range items {
			if d.indexOf(d.find(st.key(it.Rect))) == occupied {
				seed = it
				break
			}
		}
		if err := st.Insert(seed.Rect, seed.Object); err != nil {
			t.Fatal(err)
		}
		before := st.ShardLens()
		if err := st.BulkLoad(items); err == nil {
			t.Fatalf("shard %d occupied: BulkLoad succeeded", occupied)
		}
		if got := st.ShardLens(); !slices.Equal(got, before) {
			t.Fatalf("shard %d occupied: a failed BulkLoad left shard sizes %v, were %v", occupied, got, before)
		}
		if err := st.Validate(); err != nil {
			t.Fatal(err)
		}
		// The failed load released every writer lock and batch it took.
		if err := st.Insert(items[1].Rect, items[1].Object); err != nil {
			t.Fatal(err)
		}
	}
	st, err := NewSharded(ShardedOptions{Options: Options{Dims: 2, Universe: shardUniverse(2)}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(items) {
		t.Fatalf("loaded %d of %d items", st.Len(), len(items))
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}
