// Package parallel provides a worker-pool batch executor for range queries.
// The paper's evaluation (and the seed reproduction) runs every query on a
// single goroutine; this package fans a query batch out over N goroutines
// while keeping the simulated I/O accounting exact.
//
// Exactness is achieved by giving every worker a private storage.Counter:
// each worker charges its own node accesses, the per-worker snapshots are
// merged into one total after the batch, and the merged total is folded back
// into the shared tree counter. The result — counts, items, and I/O — is
// deterministic and identical to a sequential run of the same batch,
// regardless of how the scheduler interleaves the workers.
package parallel

import (
	"cbb/internal/fanout"
	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// Searcher is the read-only range-query surface the executor fans out.
// Both *rtree.Tree and *clipindex.Index implement it; implementations must
// be safe for concurrent readers.
type Searcher interface {
	SearchCounted(q geom.Rect, c *storage.Counter, visit func(rtree.ObjectID, geom.Rect) bool)
}

// Options configures a batch run.
type Options struct {
	// Workers is the number of goroutines; <= 0 uses GOMAXPROCS. The
	// effective count is additionally clamped to the number of queries.
	Workers int
	// Collect gathers the matching items of every query (Result.Items)
	// instead of only counting them.
	Collect bool
	// Main, when non-nil, receives the merged batch I/O after the batch
	// completes, so a shared tree counter accumulates exactly what a
	// sequential run of the same batch would have charged it.
	Main *storage.Counter
}

// Result is the outcome of a batch: per-query results index-aligned with the
// input, plus exact I/O accounting.
type Result struct {
	// Counts holds the number of matches of each query.
	Counts []int
	// Items holds the matches of each query (nil unless Options.Collect).
	// Within one query the order follows that query's own tree traversal,
	// so it equals the sequential order.
	Items [][]rtree.Item
	// IO is the merged I/O of the whole batch (sum of PerWorker).
	IO storage.Snapshot
	// PerWorker holds each worker's private I/O snapshot.
	PerWorker []storage.Snapshot
	// Workers is the number of goroutines actually used.
	Workers int
}

// paddedCounter keeps each worker's counter on its own cache line (and away
// from the adjacent-line prefetcher) so the workers' per-node-access atomic
// updates never false-share.
type paddedCounter struct {
	c storage.Counter
	_ [12]int64
}

// EffectiveWorkers resolves a requested worker count against n work items:
// <= 0 means GOMAXPROCS, and the count never exceeds n. ForEachChunk applies
// it internally; callers that need the effective count up front (result
// reporting, lock-elision decisions) use it to stay in sync with the
// scheduling.
func EffectiveWorkers(workers, n int) int { return min(fanout.Workers(workers, n, 1), n) }

// ForEachChunk fans the index range [0, n) out over a pool of worker
// goroutines (fanout.ForEachChunk, the caller being one of them) and returns
// the per-worker I/O snapshots (length = effective worker count, nil when
// n == 0). fn is called with the worker's id, a half-open index range — small
// enough grabs to balance skewed per-index costs — and the worker's private
// counter. Both RunBatch and the parallel joins schedule through here, so
// chunking and I/O-exactness fixes stay in one place.
func ForEachChunk(n, workers int, fn func(worker, start, end int, c *storage.Counter)) []storage.Snapshot {
	workers = EffectiveWorkers(workers, n)
	if n == 0 {
		return nil
	}
	counters := make([]paddedCounter, workers)
	fanout.ForEachChunk(n, workers, max(1, n/(workers*8)), func(w, start, end int) {
		fn(w, start, end, &counters[w].c)
	})
	out := make([]storage.Snapshot, workers)
	for w := range counters {
		out[w] = counters[w].c.Snapshot()
	}
	return out
}

// RunBatch executes every query against s using a pool of worker
// goroutines. Queries are handed out in contiguous chunks through an atomic
// cursor, so skewed query costs still balance across workers.
func RunBatch(s Searcher, queries []geom.Rect, opts Options) Result {
	workers := EffectiveWorkers(opts.Workers, len(queries))
	res := Result{Counts: make([]int, len(queries)), Workers: workers}
	if opts.Collect {
		res.Items = make([][]rtree.Item, len(queries))
	}
	if len(queries) == 0 {
		return res
	}

	res.PerWorker = ForEachChunk(len(queries), workers, func(_, start, end int, c *storage.Counter) {
		for i := start; i < end; i++ {
			n := 0
			if opts.Collect {
				var items []rtree.Item
				s.SearchCounted(queries[i], c, func(id rtree.ObjectID, r geom.Rect) bool {
					items = append(items, rtree.Item{Object: id, Rect: r})
					n++
					return true
				})
				res.Items[i] = items
			} else {
				s.SearchCounted(queries[i], c, func(rtree.ObjectID, geom.Rect) bool {
					n++
					return true
				})
			}
			res.Counts[i] = n
		}
	})
	for _, s := range res.PerWorker {
		res.IO = res.IO.Add(s)
	}
	if opts.Main != nil {
		opts.Main.Add(res.IO)
	}
	return res
}

// TotalResults returns the sum of all per-query counts.
func (r Result) TotalResults() int64 {
	var n int64
	for _, c := range r.Counts {
		n += int64(c)
	}
	return n
}
