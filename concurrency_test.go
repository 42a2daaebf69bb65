package cbb

// Race-detector regression tests for the package's concurrency guarantee:
// once construction and updates have finished, any number of goroutines may
// query a Tree concurrently. Run with `go test -race` (as CI does) to verify
// that the read path shares no unsynchronised mutable state, and that the
// parallel batch/join engines produce bit-identical results and I/O
// accounting at every worker count.

import (
	"math/rand"
	"sync"
	"testing"
)

// buildConcurrencyFixture returns a loaded tree and a set of queries over a
// deterministic uniform workload.
func buildConcurrencyFixture(t testing.TB, clipping ClipMethod, n int) (*Tree, []Rect) {
	t.Helper()
	tree, err := New(Options{Dims: 2, Variant: RStarTree, Clipping: clipping})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		if err := tree.Insert(R(x, y, x+rng.Float64()*8, y+rng.Float64()*8), ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]Rect, 120)
	for i := range queries {
		x, y := rng.Float64()*950, rng.Float64()*950
		s := 10 + rng.Float64()*40
		queries[i] = R(x, y, x+s, y+s)
	}
	return tree, queries
}

// TestConcurrentReaders hammers one tree from many goroutines mixing every
// read-only entry point. It passes vacuously without -race; under the race
// detector it fails if the read path shares unsynchronised mutable state.
func TestConcurrentReaders(t *testing.T) {
	for _, clipping := range []ClipMethod{ClipStairline, ClipNone} {
		tree, queries := buildConcurrencyFixture(t, clipping, 4000)
		// Attach a buffer pool so its locking is exercised under race too.
		tree.AttachBufferPool(64)

		want := make([]int, len(queries))
		for i, q := range queries {
			want[i] = tree.Count(q)
		}

		const goroutines = 8
		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for iter := 0; iter < 20; iter++ {
					q := queries[(g*31+iter)%len(queries)]
					switch iter % 4 {
					case 0:
						if got := tree.Count(q); got != want[(g*31+iter)%len(queries)] {
							errs <- "Count mismatch under concurrency"
							return
						}
					case 1:
						if got := len(tree.SearchAll(q)); got != want[(g*31+iter)%len(queries)] {
							errs <- "SearchAll mismatch under concurrency"
							return
						}
					case 2:
						p := Pt(q.Lo[0], q.Lo[1])
						if got := tree.NearestNeighbors(5, p); len(got) != 5 {
							errs <- "NearestNeighbors returned wrong k under concurrency"
							return
						}
					case 3:
						res, err := BatchSearch(tree, queries[:10], BatchOptions{Workers: 2})
						if err != nil {
							errs <- err.Error()
							return
						}
						for i := range res.Counts {
							if res.Counts[i] != want[i] {
								errs <- "BatchSearch mismatch under concurrency"
								return
							}
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Fatalf("clipping=%v: %s", clipping, msg)
		}
	}
}

// TestBatchSearchMatchesSequential checks the exactness guarantee: counts,
// collected items, and I/O of a parallel batch equal a sequential loop.
func TestBatchSearchMatchesSequential(t *testing.T) {
	tree, queries := buildConcurrencyFixture(t, ClipStairline, 5000)

	tree.ResetIOStats()
	wantCounts := make([]int, len(queries))
	for i, q := range queries {
		wantCounts[i] = tree.Count(q)
	}
	wantIO := tree.IOStats()

	for _, workers := range []int{1, 3, 8} {
		tree.ResetIOStats()
		res, err := BatchSearch(tree, queries, BatchOptions{Workers: workers, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantCounts {
			if res.Counts[i] != wantCounts[i] {
				t.Fatalf("workers=%d query %d: count %d, sequential %d", workers, i, res.Counts[i], wantCounts[i])
			}
			if len(res.Items[i]) != wantCounts[i] {
				t.Fatalf("workers=%d query %d: %d items, count %d", workers, i, len(res.Items[i]), wantCounts[i])
			}
		}
		if res.IO != wantIO {
			t.Fatalf("workers=%d: batch IO %+v, sequential %+v", workers, res.IO, wantIO)
		}
		// The batch I/O must also have advanced the tree's cumulative stats.
		if got := tree.IOStats(); got != wantIO {
			t.Fatalf("workers=%d: cumulative IOStats %+v, want %+v", workers, got, wantIO)
		}
	}
}

// TestParallelJoinDeterminism checks that parallel joins report pair counts
// and I/O identical to their sequential runs.
func TestParallelJoinDeterminism(t *testing.T) {
	left, _ := buildConcurrencyFixture(t, ClipStairline, 3000)
	right, _ := buildConcurrencyFixture(t, ClipStairline, 2000)
	probes := left.SearchAll(left.Bounds()) // every left item probes the right tree

	seqINLJ, err := IndexNestedLoopJoin(right, probes, nil)
	if err != nil {
		t.Fatal(err)
	}
	seqSTT, err := SynchronizedTreeTraversalJoin(left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seqINLJ.Pairs == 0 || seqSTT.Pairs == 0 {
		t.Fatal("fixtures should overlap")
	}
	if seqINLJ.Pairs != seqSTT.Pairs {
		t.Fatalf("join strategies disagree: INLJ %d, STT %d", seqINLJ.Pairs, seqSTT.Pairs)
	}

	for _, workers := range []int{2, 4, 8} {
		opts := JoinOptions{Workers: workers}
		inlj, err := JoinItems(right, probes, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inlj.Pairs != seqINLJ.Pairs || inlj.IO != seqINLJ.IO {
			t.Fatalf("INLJ workers=%d: %+v, sequential %+v", workers, inlj, seqINLJ)
		}
		stt, err := SynchronizedTreeTraversalJoinWith(left, right, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stt.Pairs != seqSTT.Pairs || stt.IO != seqSTT.IO {
			t.Fatalf("STT workers=%d: %+v, sequential %+v", workers, stt, seqSTT)
		}
	}
}

// TestResetIOStatsResetsBufferPool is the regression test for the stats
// leak: a cold start must zero the pool's hit/miss statistics together with
// the access counters.
func TestResetIOStatsResetsBufferPool(t *testing.T) {
	tree, queries := buildConcurrencyFixture(t, ClipNone, 2000)
	if _, ok := tree.BufferStats(); ok {
		t.Fatal("no pool attached yet, BufferStats should report ok=false")
	}
	tree.AttachBufferPool(32)
	for _, q := range queries[:20] {
		tree.Count(q)
	}
	stats, ok := tree.BufferStats()
	if !ok || stats.Hits+stats.Misses == 0 {
		t.Fatalf("pool should have been touched: %+v ok=%v", stats, ok)
	}
	if rate := stats.HitRate(); rate < 0 || rate > 1 {
		t.Fatalf("hit rate out of range: %v", rate)
	}

	tree.ResetIOStats()
	stats, ok = tree.BufferStats()
	if !ok {
		t.Fatal("pool should remain attached across resets")
	}
	if stats.Hits != 0 || stats.Misses != 0 {
		t.Fatalf("ResetIOStats leaked buffer-pool stats: %+v", stats)
	}
	if io := tree.IOStats(); io != (IOStats{}) {
		t.Fatalf("ResetIOStats leaked counters: %+v", io)
	}

	tree.DetachBufferPool()
	if _, ok := tree.BufferStats(); ok {
		t.Fatal("pool should be detached")
	}
}
