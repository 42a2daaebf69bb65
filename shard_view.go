package cbb

import "sync"

// ShardedView is a pinned, cross-shard read view of a ShardedTree taken
// with ShardedTree.Snapshot: one snapshot per shard, all pinned in a single
// acquisition that is atomic with respect to cross-shard batch commits, so
// the per-shard epochs are mutually consistent — the view can never observe
// part of a ShardedBatch. Each shard's epoch stays fixed for the view's
// lifetime regardless of concurrent writers, splits, or merges (a view
// pinned on a since-retired shard keeps serving its frozen content).
//
// It offers the same queries as a View (Search fans out only to shards whose
// pinned root MBB intersects the query; Epochs lists the pinned epochs in
// directory order). Like View, a ShardedView is safe for any number of
// concurrent goroutines and must be released with Close.
type ShardedView struct {
	reader
	once sync.Once
}

// Snapshot returns a pinned cross-shard read view of the last committed
// state of every shard. The acquisition excludes cross-shard batch commits
// (and nothing else): plain writers keep committing concurrently, and the
// view keeps serving its epochs.
func (st *ShardedTree) Snapshot() *ShardedView {
	st.commitMu.RLock()
	defer st.commitMu.RUnlock()
	shards := st.dir.Load().shards
	r := make(reader, len(shards))
	for i, sh := range shards {
		r[i] = sh.t.idx.PinSnap()
	}
	return &ShardedView{reader: r}
}

// Close releases every shard pin. Idempotent; the view must not be queried
// after Close.
func (sv *ShardedView) Close() { sv.once.Do(sv.unpin) }

// Shards returns the number of shards pinned by the view.
func (sv *ShardedView) Shards() int { return len(sv.reader) }
