package cbb

import (
	"errors"
	"fmt"
	"sync"

	"cbb/internal/clipindex"
)

// This file is the public surface of the concurrency subsystem: pinned read
// views (Snapshot / View) and batched writer transactions (Begin / Batch).
//
// The engine is copy-on-write versioned: every committed mutation publishes
// a new immutable version of the tree together with the clip table of the
// same epoch behind one atomic pointer. Ordinary queries on a Tree load the
// current snapshot once and traverse it lock-free; a View pins one snapshot
// so that an arbitrarily long sequence of queries — range searches, batch
// searches, nearest-neighbour queries, joins — observes one frozen state of
// the index while writers keep committing. Writers never wait for readers
// and readers never wait for writers.

// View is a pinned, immutable snapshot of a Tree taken with Tree.Snapshot.
// All read operations on the view observe exactly the state of the commit
// that produced it: no later Insert, Delete, Batch.Commit, or BulkLoad is
// visible, and no partially applied batch can ever be observed. A View is
// safe for any number of concurrent goroutines, and its queries — the same
// Search, SearchAll, Count, NearestNeighbors, BatchSearch, Len, Height,
// Bounds, and Stats a Tree offers, plus JoinItems and Join through the
// Reader interface — charge the owning tree's I/O counters and buffer pool
// exactly like queries on the Tree itself.
//
// Close releases the view's pin; keeping many views open is cheap in
// memory (versions share all unchanged nodes), but pins defer the reuse of
// file pages freed by later batches, so long-lived views on file-backed
// trees should be closed when done.
type View struct {
	reader
	one  [1]*clipindex.Snap // backs reader: pinning a view stays one allocation
	once sync.Once
}

// Snapshot returns a pinned read view of the tree's last committed state.
// It never blocks: concurrent writers continue committing new versions while
// the view keeps serving its epoch. Every view must be released with Close.
func (t *Tree) Snapshot() *View {
	v := &View{one: [1]*clipindex.Snap{t.idx.PinSnap()}}
	v.reader = v.one[:]
	return v
}

// Close releases the view's pin. It is idempotent; the view must not be
// queried after Close.
func (v *View) Close() { v.once.Do(v.unpin) }

// Epoch returns the commit epoch the view is pinned to. Epochs increase by
// one per committed batch, so two views with equal epochs (of one tree) see
// identical states.
func (v *View) Epoch() uint64 { return v.reader[0].Version().Epoch() }

// Batch is an open writer transaction created with Tree.Begin: mutations
// applied through it accumulate in a writer-private overlay (copy-on-write
// clones of the touched nodes and clip entries) and become visible to
// readers only at Commit, as one atomic version switch. Readers concurrent
// with an open batch — including views taken while it is open — keep seeing
// the previous commit; no reader can ever observe half a batch.
//
// A Batch holds the tree's writer lock from Begin until Commit or
// Rollback, serialising it against every other mutation (single-writer
// discipline); it must be used from one goroutine and must be finished
// with exactly one Commit or Rollback (abandoning a batch leaves the
// writer lock held and blocks every future mutation).
//
// Durability of file-backed trees is unchanged: Commit publishes to readers
// in memory, and the next Flush or Close persists all committed batches
// through the existing write-ahead-log commit, atomically.
type Batch struct {
	t    *Tree
	done bool
}

// Begin opens a writer batch. It blocks while another mutation or batch is
// in flight (writers are serialised; readers are never blocked) and fails
// on read-only trees.
func (t *Tree) Begin() (*Batch, error) {
	t.wmu.Lock()
	if err := t.idx.Begin(); err != nil {
		t.wmu.Unlock()
		return nil, fmt.Errorf("cbb: begin: %w", err)
	}
	t.batchOpen.Store(true)
	return &Batch{t: t}, nil
}

// Insert adds an object to the batch; it becomes visible to readers at
// Commit.
func (b *Batch) Insert(r Rect, id ObjectID) error {
	if b.done {
		return errBatchDone
	}
	return b.t.insertLocked(r, id)
}

// InsertItems adds a batch of objects through the fast batch-insert
// pipeline (see Tree.InsertItems); they become visible to readers at
// Commit, together with the rest of the batch.
func (b *Batch) InsertItems(items []Item) error {
	if b.done {
		return errBatchDone
	}
	return b.t.idx.InsertItems(items)
}

// Delete removes an object within the batch; the removal becomes visible to
// readers at Commit. It reports whether the object was found (in the
// batch's own uncommitted state).
func (b *Batch) Delete(r Rect, id ObjectID) (bool, error) {
	if b.done {
		return false, errBatchDone
	}
	return b.t.idx.Delete(r, id)
}

// Commit publishes the batch to readers as one new epoch and releases the
// writer lock. Call Tree.Flush afterwards to make the committed state
// durable on a file-backed tree.
func (b *Batch) Commit() error {
	if b.done {
		return errBatchDone
	}
	b.done = true
	b.t.idx.Commit()
	b.t.batchOpen.Store(false)
	b.t.wmu.Unlock()
	return nil
}

// Rollback discards every mutation applied through the batch and releases
// the writer lock; readers never saw any of it. It is the error-path
// counterpart of Commit (use it in a defer guarded by a committed flag, or
// after a failed Insert/Delete); on an already finished batch it is a
// no-op, so `defer b.Rollback()` after a successful Commit is safe.
func (b *Batch) Rollback() {
	if b.done {
		return
	}
	b.done = true
	b.t.idx.Rollback()
	b.t.batchOpen.Store(false)
	b.t.wmu.Unlock()
}

var errBatchDone = errors.New("cbb: batch already committed or rolled back")
