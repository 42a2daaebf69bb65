package storage

import (
	"sync/atomic"
	"testing"
)

// BenchmarkBufferPoolParallel hammers one shared pool from GOMAXPROCS
// goroutines, each touching its own node working set plus a long stride —
// the access shape of a parallel batch search, where workers mostly revisit
// recently faulted nodes. ns/op is the cost of a single TouchSized under
// contention for the pool's one mutex.
func BenchmarkBufferPoolParallel(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		budget int64
	}{
		{"unbounded", 0},
		{"bounded=4096", 4096 * 512},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			pool := NewBufferPoolBytes(cfg.budget)
			var worker int32
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				base := (atomic.AddInt32(&worker, 1) - 1) << 17
				i := int32(0)
				for pb.Next() {
					// 3 of 4 touches hit a small per-worker set, 1 of 4
					// walks a stride of 64k nodes, forcing misses and
					// evictions.
					if i%4 != 0 {
						pool.TouchSized(base+i%128, 512)
					} else {
						pool.TouchSized(base+1<<16+i%(1<<16), 512)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkBufferPoolTouch is the uncontended single-goroutine cost of
// TouchSized on a bounded pool in steady state (working set larger than the
// budget, so every miss evicts).
func BenchmarkBufferPoolTouch(b *testing.B) {
	pool := NewBufferPoolBytes(1024 * 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.TouchSized(int32(i%2048), 512)
	}
}
