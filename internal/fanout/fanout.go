// Package fanout is the repository's one scheduling loop: an index range
// handed out in contiguous chunks, through an atomic cursor, to a few
// goroutines. The query executor (parallel.ForEachChunk adds per-worker I/O
// counters), the clip-table build, the bulk loader and the sharded engine's
// shard builds all fan out through it.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count for n indices handed out chunk
// at a time: <= 0 means GOMAXPROCS, never more than one worker per chunk,
// never fewer than one in all.
func Workers(workers, n, chunk int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, (n+chunk-1)/chunk))
}

// ForEachChunk calls fn over [0, n) in half-open ranges of at most chunk
// indices from Workers(workers, n, chunk) goroutines — the caller's included,
// as worker 0, so a single chunk starts none — and returns when all are done.
// Which worker takes which range is up to the scheduler: fn must write only
// what its indices, or its worker id, own.
func ForEachChunk(n, workers, chunk int, fn func(worker, start, end int)) {
	var cursor atomic.Int64
	work := func(w int) {
		for {
			start := int(cursor.Add(int64(chunk))) - chunk
			if start >= n {
				return
			}
			fn(w, start, min(start+chunk, n))
		}
	}
	var wg sync.WaitGroup
	for w := Workers(workers, n, chunk) - 1; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}
