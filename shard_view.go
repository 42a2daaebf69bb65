package cbb

// ShardedView is a cross-shard read view of a ShardedTree taken with
// ShardedTree.Snapshot: one snapshot per shard of the directory, all taken
// in a single acquisition that is atomic with respect to cross-shard
// batch commits, so the per-shard epochs are mutually consistent — the view
// can never observe part of a ShardedBatch. Each shard's epoch stays fixed
// for the view's lifetime regardless of concurrent writers, splits, or
// merges: a view of a shard that a split or merge has since replaced keeps
// serving its frozen content.
//
// Its queries are a View's, on the same read path (a shard whose root MBB or
// root clip points rule a range query out costs no I/O; Epochs lists the
// view's epochs in directory order). Like View, a ShardedView is safe for
// any number of concurrent goroutines and holds nothing but its snapshots.
type ShardedView struct {
	reader
}

// Snapshot returns a cross-shard read view of the last committed
// state of every shard. The acquisition excludes cross-shard batch commits
// (and nothing else): plain writers keep committing concurrently, and the
// view keeps serving its epochs.
func (st *ShardedTree) Snapshot() *ShardedView {
	st.commitMu.RLock()
	defer st.commitMu.RUnlock()
	shards := st.dir.Load().shards
	r := make(reader, len(shards))
	for i, sh := range shards {
		r[i] = sh.t.idx.Snap()
	}
	return &ShardedView{reader: r}
}

// Close releases nothing, like View.Close; the view must not be queried
// after Close.
func (sv *ShardedView) Close() {}

// Shards returns the number of shards the view answers from.
func (sv *ShardedView) Shards() int { return len(sv.reader) }
