package cbb

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"cbb/internal/storage"
)

// buildHotPathTestTree is the test-sized sibling of the benchmark helper:
// a bulk-loaded in-memory tree over uniform rectangles plus a query set.
func buildHotPathTestTree(t *testing.T, n int, clipping ClipMethod) (*Tree, []Rect) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	items := make([]Item, n)
	for i := range items {
		lo := Pt(rng.Float64(), rng.Float64())
		items[i] = Item{Object: ObjectID(i), Rect: Rect{Lo: lo, Hi: Pt(lo[0]+0.01, lo[1]+0.01)}}
	}
	tree, err := New(Options{Dims: 2, Variant: RStarTree, Clipping: clipping})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	queries := make([]Rect, 32)
	for i := range queries {
		lo := Pt(rng.Float64()*0.9, rng.Float64()*0.9)
		queries[i] = Rect{Lo: lo, Hi: Pt(lo[0]+0.1, lo[1]+0.1)}
	}
	return tree, queries
}

// TestSearchZeroAllocs pins the zero-allocation guarantee of the in-memory
// read path: once the pooled search scratch is warm, neither a plain nor a
// clip-filtered range query allocates. GC is disabled during the
// measurement so the sync.Pool cannot be drained mid-run. Each case runs on
// the tree as built and on the same tree after a SaveTo/Load round trip: a
// loaded tree is an ordinary in-memory tree (no store binding and no lazy
// version, so no lock and no allocation on the read path), published at the
// epoch a built one is.
func TestSearchZeroAllocs(t *testing.T) {
	// Allocations per operation of the kNN and STT-join cases below: the kNN
	// result slice, and for a join the joiner and its scratch lists growing to
	// their steady size — a constant, whatever the number of nodes read.
	const knnAllocs, joinAllocs = 1, 19
	type zeroAllocCase struct {
		cm     ClipMethod
		loaded bool
	}
	for _, c := range []zeroAllocCase{{ClipNone, false}, {ClipNone, true}, {ClipStairline, false}, {ClipStairline, true}} {
		cm, name := c.cm, c.cm.String()
		if c.loaded {
			name += "-loaded"
		}
		t.Run(name, func(t *testing.T) {
			tree, queries := buildHotPathTestTree(t, 4000, cm)
			if c.loaded {
				var buf bytes.Buffer
				if err := tree.SaveTo(&buf); err != nil {
					t.Fatal(err)
				}
				built := tree.tree.CurrentVersion().Epoch()
				var err error
				if tree, err = Load(&buf); err != nil {
					t.Fatal(err)
				}
				if got := tree.tree.CurrentVersion().Epoch(); tree.tree.FileBacked() || got != built {
					t.Fatalf("loaded tree: FileBacked %v at epoch %d, want an in-memory tree at epoch %d", tree.tree.FileBacked(), got, built)
				}
			}
			hits := 0
			visit := func(ObjectID, Rect) bool { hits++; return true }
			// Warm the scratch pool and any lazily grown stacks.
			for _, q := range queries {
				tree.Search(q, visit)
			}
			if hits == 0 {
				t.Fatal("queries matched nothing; test is vacuous")
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			i := 0
			allocs := testing.AllocsPerRun(100, func() {
				tree.Search(queries[i%len(queries)], visit)
				i++
			})
			if allocs != 0 {
				t.Errorf("steady-state Search (%s) allocates %.1f times per query, want 0", cm, allocs)
			}

			// The same guarantee holds on a pinned snapshot view — the
			// version load happens once at Snapshot time, and the scan loop
			// performs no locking, no atomics, and no allocation.
			v := tree.Snapshot()
			defer v.Close()
			allocs = testing.AllocsPerRun(100, func() {
				v.Search(queries[i%len(queries)], visit)
				i++
			})
			if allocs != 0 {
				t.Errorf("steady-state View.Search (%s) allocates %.1f times per query, want 0", cm, allocs)
			}

			if raceEnabled {
				// Under -race sync.Pool drops Puts at random and the
				// instrumentation allocates; the counts below only mean
				// something in an uninstrumented binary.
				return
			}
			allocs = testing.AllocsPerRun(100, func() {
				lo := queries[i%len(queries)].Lo
				if got := len(v.NearestNeighbors(10, lo)); got != 10 {
					t.Fatalf("NearestNeighbors returned %d neighbours, want 10", got)
				}
				i++
			})
			if allocs > knnAllocs {
				t.Errorf("steady-state NearestNeighbors (%s) allocates %.1f times per query, want at most %d", cm, allocs, knnAllocs)
			}
			other, _ := buildHotPathTestTree(t, 1000, cm)
			ov := other.Snapshot()
			defer ov.Close()
			allocs = testing.AllocsPerRun(10, func() {
				res, err := Join(v, ov, JoinOptions{Workers: 1}, nil)
				if err != nil || res.Pairs == 0 {
					t.Fatalf("Join: %d pairs, err %v", res.Pairs, err)
				}
			})
			if allocs > joinAllocs {
				t.Errorf("STT join (%s) allocates %.1f times per join, want at most %d", cm, allocs, joinAllocs)
			}
		})
	}
}

// TestBatchSearchShardedPoolRace exercises the lock-striped buffer pool from
// several concurrent BatchSearch callers (each itself fanning out over
// worker goroutines) and checks that every caller observes exactly the
// sequential per-query counts. Run with -race, this is the regression test
// for the pool's shard synchronisation.
func TestBatchSearchShardedPoolRace(t *testing.T) {
	tree, queries := buildHotPathTestTree(t, 4000, ClipStairline)
	// Capacity 4096 stripes the pool across the maximum shard count.
	tree.AttachBufferPool(4096)

	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = tree.Count(q)
	}

	const callers = 4
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				res, err := BatchSearch(tree, queries, BatchOptions{Workers: 4})
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if res.Counts[i] != want[i] {
						t.Errorf("query %d: concurrent count %d, sequential %d", i, res.Counts[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats, ok := tree.BufferStats()
	if !ok || stats.Hits+stats.Misses == 0 {
		t.Fatal("buffer pool saw no traffic")
	}
}

// TestBytesResidentIndependentOfAccessPath pins that a page is charged one
// size whoever reads it: on a byte-budget pool too large to evict anything,
// the resident bytes after a full search stay put through a self-join (which
// reads every node again through the join's charge) and through another
// search. Charging the join's reads without the filter layer used to re-price
// every page on each change of access path.
func TestBytesResidentIndependentOfAccessPath(t *testing.T) {
	tree, _ := buildHotPathTestTree(t, 4000, ClipStairline)
	pool := storage.NewBufferPoolBytes(1 << 40)
	tree.tree.SetBufferPool(pool)
	everything := R(-1, -1, 2, 2)

	if tree.Count(everything) != 4000 {
		t.Fatal("full-space search missed objects")
	}
	searched, pages := pool.BytesResident(), pool.Len()
	if searched == 0 {
		t.Fatal("byte pool charged nothing")
	}
	if res, err := Join(tree, tree, JoinOptions{Workers: 1}, nil); err != nil || res.Pairs == 0 {
		t.Fatalf("self-join: %d pairs, err %v", res.Pairs, err)
	}
	if got := pool.BytesResident(); got != searched || pool.Len() != pages {
		t.Errorf("after a self-join %d pages hold %d B, after the search before it %d pages held %d B", pool.Len(), got, pages, searched)
	}
	tree.Count(everything)
	if got := pool.BytesResident(); got != searched {
		t.Errorf("searching again moved resident bytes from %d to %d", searched, got)
	}
}
