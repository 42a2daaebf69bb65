// Package storage provides the page layer of the library: I/O accounting
// (the paper's primary metric is the number of leaf-node accesses), one
// checksummed page file format with its three page stores — held in memory
// (Image), on disk with a write-ahead log (FilePager), and memory-mapped
// (MmapStore) — and an LRU buffer pool used to emulate cold-cache behaviour
// in the scalability experiment.
//
// Every operation on an R-tree — a range search, a kNN search, a join
// traversal, an insertion, a deletion, a bulk load, a clip-table maintenance
// step — tallies what it did in a plain value it owns (a read's Snapshot, a
// write's trace), charges the tally to its tree's Counter once, with Add,
// when it ends, and returns it. Callers that measure sum the tallies their
// calls return, so the evaluation harness measures exactly what the paper
// measures — "we assume that internal (non-leaf) nodes are memory-resident
// and measure the number of leaf-level nodes accessed as our default I/O
// metric" — and the Counter holds only the running totals.
package storage

import (
	"fmt"
	"sync/atomic"
)

// Counter accumulates a tree's running totals: every operation charges its
// tally once with Add. All methods are safe for concurrent use.
type Counter struct {
	leafReads int64
	dirReads  int64
	writes    int64
	reclips   int64
}

// Snapshot is a copy of a Counter's totals, and the tally an operation keeps
// of what it did before charging it with Counter.Add.
type Snapshot struct {
	LeafReads int64 // leaf-node accesses (the paper's I/O metric)
	DirReads  int64 // directory-node accesses
	Writes    int64 // node writes (construction and updates)
	Reclips   int64 // CBB recomputations (update experiment)
}

// Total returns all node reads (leaf + directory).
func (s Snapshot) Total() int64 { return s.LeafReads + s.DirReads }

// Add returns the element-wise sum of two snapshots, used to sum the tallies
// of the operations of a batch, a join or an experiment into one exact total.
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

// Snapshot returns the current totals.
func (c *Counter) Snapshot() Snapshot {
	return Snapshot{
		LeafReads: atomic.LoadInt64(&c.leafReads),
		DirReads:  atomic.LoadInt64(&c.dirReads),
		Writes:    atomic.LoadInt64(&c.writes),
		Reclips:   atomic.LoadInt64(&c.reclips),
	}
}

// Add accumulates a snapshot's totals into the counter: how an operation
// charges its tally, once, when it ends. A zero tally (a query the root ruled
// out) costs nothing.
func (c *Counter) Add(s Snapshot) {
	if s == (Snapshot{}) {
		return
	}
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
