package cbb

import (
	"errors"

	"cbb/internal/join"
)

// Spatial joins have one entry point per paper algorithm — JoinItems (index
// nested loop, one input indexed) and Join (synchronised tree traversal,
// both inputs indexed) — and each accepts any Reader. Every join runs at one
// snapshot per input: a View or ShardedView is used as pinned; a Tree or
// ShardedTree is pinned for the duration of the join, so the result is
// exactly what a quiesced index at that epoch would produce even while
// writers commit concurrently. A sharded input contributes one snapshot per
// shard; because every object lives in exactly one shard, the union over
// shards (JoinItems) or over the cross product of bounds-intersecting shard
// pairs (Join) produces each intersecting pair exactly once — the result set
// equals the unsharded join's, whatever mix of sharded and unsharded inputs
// is joined. Reported I/O legitimately differs between a sharded and an
// unsharded input: the trees are smaller and the directory-level shard skip
// is free.

// JoinPair is one result of a spatial join: the ids of two intersecting
// objects, one from each input.
type JoinPair = join.Pair

// JoinResult summarises a spatial join: the number of intersecting pairs and
// the simulated I/O the join incurred.
type JoinResult struct {
	Pairs int64
	IO    IOStats
}

// JoinOptions tunes how a spatial join executes.
type JoinOptions struct {
	// Workers is the number of goroutines the join is fanned out over:
	// 0 (or negative) uses GOMAXPROCS — the same convention as
	// BatchOptions.Workers — and 1 runs sequentially. Higher counts
	// partition the probe set (JoinItems), the admissible shard pairs (Join
	// with a sharded input), or the admissible pairs of root children (Join
	// of two single trees). Pair counts and reported I/O are identical for
	// every worker count; only the order in which the visit callback
	// observes pairs changes.
	Workers int
}

// Reader is an index state a join can read: *Tree, *View, *ShardedTree, and
// *ShardedView implement it (and nothing outside this package can).
type Reader interface {
	// acquire returns the reader a whole join runs against and the function
	// that releases it.
	acquire() (reader, func())
}

func (t *Tree) acquire() (reader, func())         { v := t.Snapshot(); return v.reader, v.Close }
func (st *ShardedTree) acquire() (reader, func()) { v := st.Snapshot(); return v.reader, v.Close }
func (v *View) acquire() (reader, func())         { return v.reader, func() {} }
func (sv *ShardedView) acquire() (reader, func()) { return sv.reader, func() {} }

// JoinItems joins an index with a set of probe items by running one range
// query per probe (the paper's INLJ strategy, used when only one input is
// indexed). The optional visit callback receives every matching pair, the
// indexed object on the left; pass nil to only count.
func JoinItems(indexed Reader, probes []Item, opts JoinOptions, visit func(JoinPair)) (JoinResult, error) {
	if indexed == nil {
		return JoinResult{}, errors.New("cbb: JoinItems requires an indexed input")
	}
	r, release := indexed.acquire()
	defer release()
	res := join.INLJ(r, probes, opts.Workers, visit)
	return JoinResult{Pairs: res.Pairs, IO: toIOStats(res.IO)}, nil
}

// Join joins two indexes by descending both hierarchies in lockstep (the
// paper's STT strategy, used when both inputs are indexed). Clipping is
// applied on whichever inputs have it enabled: a subtree pair is skipped
// when either side's overlap with the other's MBB is certified dead space.
func Join(left, right Reader, opts JoinOptions, visit func(JoinPair)) (JoinResult, error) {
	if left == nil || right == nil {
		return JoinResult{}, errors.New("cbb: Join requires two indexed inputs")
	}
	l, releaseLeft := left.acquire()
	defer releaseLeft()
	r, releaseRight := right.acquire()
	defer releaseRight()
	pairs := make([]join.SidePair, 0, len(l)*len(r))
	for _, ls := range l {
		for _, rs := range r {
			pairs = append(pairs, join.SidePair{Left: ls, Right: rs})
		}
	}
	res, err := join.STT(pairs, opts.Workers, visit)
	if err != nil {
		return JoinResult{}, err
	}
	return JoinResult{Pairs: res.Pairs, IO: toIOStats(res.IO)}, nil
}

// IndexNestedLoopJoin is JoinItems on a single tree, run sequentially.
func IndexNestedLoopJoin(indexed *Tree, probes []Item, visit func(JoinPair)) (JoinResult, error) {
	if indexed == nil {
		return JoinResult{}, errors.New("cbb: IndexNestedLoopJoin requires an indexed tree")
	}
	return JoinItems(indexed, probes, JoinOptions{Workers: 1}, visit)
}

// SynchronizedTreeTraversalJoin is Join on two single trees, run
// sequentially.
func SynchronizedTreeTraversalJoin(left, right *Tree, visit func(JoinPair)) (JoinResult, error) {
	return SynchronizedTreeTraversalJoinWith(left, right, JoinOptions{Workers: 1}, visit)
}

// SynchronizedTreeTraversalJoinWith is Join on two single trees.
func SynchronizedTreeTraversalJoinWith(left, right *Tree, opts JoinOptions, visit func(JoinPair)) (JoinResult, error) {
	if left == nil || right == nil {
		return JoinResult{}, errors.New("cbb: SynchronizedTreeTraversalJoin requires two indexed trees")
	}
	return Join(left, right, opts, visit)
}
