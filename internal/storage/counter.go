// Package storage provides the page layer of the library: I/O accounting
// (the paper's primary metric is the number of leaf-node accesses), one
// checksummed page file format with its three page stores — held in memory
// (Image), on disk with a write-ahead log (FilePager), and memory-mapped
// (MmapStore) — and an LRU buffer pool used to emulate cold-cache behaviour
// in the scalability experiment.
//
// The R-tree variants route every node access through a Counter so that the
// evaluation harness can measure exactly what the paper measures: "we assume
// that internal (non-leaf) nodes are memory-resident and measure the number
// of leaf-level nodes accessed as our default I/O metric".
package storage

import (
	"fmt"
	"sync/atomic"
)

// Counter accumulates node-access statistics. All methods are safe for
// concurrent use; experiments typically Reset it, run a query batch, and
// read a Snapshot.
type Counter struct {
	leafReads int64
	dirReads  int64
	writes    int64
	reclips   int64
}

// Snapshot is an immutable copy of a Counter's totals.
type Snapshot struct {
	LeafReads int64 // leaf-node accesses (the paper's I/O metric)
	DirReads  int64 // directory-node accesses
	Writes    int64 // node writes (construction and updates)
	Reclips   int64 // CBB recomputations (update experiment)
}

// Total returns all node reads (leaf + directory).
func (s Snapshot) Total() int64 { return s.LeafReads + s.DirReads }

// Add returns the element-wise sum of two snapshots, used to merge the
// per-worker I/O of a parallel query batch into one exact total.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		LeafReads: s.LeafReads + o.LeafReads,
		DirReads:  s.DirReads + o.DirReads,
		Writes:    s.Writes + o.Writes,
		Reclips:   s.Reclips + o.Reclips,
	}
}

// String renders the snapshot compactly for logs and experiment output.
func (s Snapshot) String() string {
	return fmt.Sprintf("leaf=%d dir=%d writes=%d reclips=%d", s.LeafReads, s.DirReads, s.Writes, s.Reclips)
}

// LeafRead records n leaf-node accesses.
func (c *Counter) LeafRead(n int64) { atomic.AddInt64(&c.leafReads, n) }

// DirRead records n directory-node accesses.
func (c *Counter) DirRead(n int64) { atomic.AddInt64(&c.dirReads, n) }

// Write records n node writes.
func (c *Counter) Write(n int64) { atomic.AddInt64(&c.writes, n) }

// Reclip records n clip-table recomputations.
func (c *Counter) Reclip(n int64) { atomic.AddInt64(&c.reclips, n) }

// Snapshot returns the current totals.
func (c *Counter) Snapshot() Snapshot {
	return Snapshot{
		LeafReads: atomic.LoadInt64(&c.leafReads),
		DirReads:  atomic.LoadInt64(&c.dirReads),
		Writes:    atomic.LoadInt64(&c.writes),
		Reclips:   atomic.LoadInt64(&c.reclips),
	}
}

// Add accumulates a snapshot's totals into the counter. Parallel executors
// run each worker against a private Counter and fold the per-worker
// snapshots back into the shared counter with Add, so the shared totals are
// exactly what a sequential run would have produced.
func (c *Counter) Add(s Snapshot) {
	atomic.AddInt64(&c.leafReads, s.LeafReads)
	atomic.AddInt64(&c.dirReads, s.DirReads)
	atomic.AddInt64(&c.writes, s.Writes)
	atomic.AddInt64(&c.reclips, s.Reclips)
}

// Reset zeroes all totals.
func (c *Counter) Reset() {
	atomic.StoreInt64(&c.leafReads, 0)
	atomic.StoreInt64(&c.dirReads, 0)
	atomic.StoreInt64(&c.writes, 0)
	atomic.StoreInt64(&c.reclips, 0)
}

// Diff returns the difference new − old of two snapshots, useful for
// measuring a single query batch.
func Diff(old, new Snapshot) Snapshot {
	return Snapshot{
		LeafReads: new.LeafReads - old.LeafReads,
		DirReads:  new.DirReads - old.DirReads,
		Writes:    new.Writes - old.Writes,
		Reclips:   new.Reclips - old.Reclips,
	}
}
