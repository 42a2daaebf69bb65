package cbb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cbb/internal/clipindex"
	"cbb/internal/fanout"
	"cbb/internal/hilbert"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// This file is the core of the sharded engine: a ShardedTree partitions the
// universe into N contiguous Hilbert key ranges, each backed by an
// independent Tree with its own writer mutex and copy-on-write epoch chain.
// A mutation routes to exactly one shard (by the Hilbert key of its
// rectangle's centre), so writers on different shards commit truly in
// parallel — the engine scales writes past the single Tree's writer mutex
// while every read keeps the lock-free snapshot semantics of the single
// tree.
//
// The layer stack, top to bottom:
//
//	directory  — one atomic pointer to an immutable list of shards, each
//	             owning a contiguous Hilbert key range; the only record of
//	             which shards are live
//	shard      — an independent Tree: writer mutex, clip index, buffer
//	             pool, optional snapshot file + WAL
//	version    — the shard tree's copy-on-write epoch chain
//	pages      — the shard's simulated or file-backed page store
//
// Consistency: per-shard mutations are atomic exactly as on a single Tree.
// Cross-shard batches (Begin/ShardedBatch) commit all touched shards while
// holding a commit lock that Snapshot acquires in read mode, so a
// ShardedView (which takes every shard's epoch in one acquisition) can never
// observe a partially committed cross-shard batch. Rebalancing (split and
// merge, see below) replaces shards only with content-equivalent rebuilds
// while their writers are blocked, so readers — views or not — never see
// objects appear or disappear.

// ShardedOptions configures a ShardedTree. The embedded Options apply to
// every shard tree; Universe is required (routing quantises it onto the
// Hilbert curve).
type ShardedOptions struct {
	Options

	// Shards is the initial number of shards (default 4). The universe's
	// Hilbert key space is divided into this many equal contiguous ranges.
	Shards int

	// HilbertBits is the curve order used for routing (bits per dimension);
	// 0 defaults to 16, clamped so the full index fits a uint64 and each
	// axis fits 32 bits.
	HilbertBits int

	// SplitAbove, when > 0, makes the engine split a shard whose object
	// count exceeds it: the shard's key range is bisected at the median
	// occupied key and both halves are bulk-rebuilt, so a hot region cannot
	// swamp one writer. 0 disables automatic splits.
	SplitAbove int

	// MergeBelow, when > 0, makes the engine merge a shard whose object
	// count falls below it with an adjacent shard, provided the combined
	// count stays under 3/4 of SplitAbove (hysteresis; without SplitAbove
	// the merge is unconditional). 0 disables automatic merges.
	MergeBelow int
}

func (o ShardedOptions) withDefaults() (ShardedOptions, error) {
	base, err := o.Options.withDefaults()
	if err != nil {
		return o, err
	}
	o.Options = base
	if o.Universe.IsZero() || !o.Universe.Valid() || o.Universe.Dims() != o.Dims {
		return o, errors.New("cbb: ShardedOptions requires a valid Universe of Options.Dims dimensions (routing quantises it onto the Hilbert curve)")
	}
	if o.Shards == 0 {
		o.Shards = 4
	}
	if o.Shards < 1 {
		return o, errors.New("cbb: ShardedOptions.Shards must be at least 1")
	}
	if o.HilbertBits == 0 {
		o.HilbertBits = 16
	}
	if o.HilbertBits < 1 {
		return o, errors.New("cbb: ShardedOptions.HilbertBits must be positive")
	}
	if o.Dims*o.HilbertBits > hilbert.MaxTotalBits {
		o.HilbertBits = hilbert.MaxTotalBits / o.Dims
	}
	if o.HilbertBits > hilbert.MaxBitsPerDim {
		o.HilbertBits = hilbert.MaxBitsPerDim
	}
	if o.SplitAbove < 0 || o.MergeBelow < 0 {
		return o, errors.New("cbb: ShardedOptions split/merge thresholds must not be negative")
	}
	if o.SplitAbove > 0 && o.MergeBelow > 0 && o.MergeBelow >= o.SplitAbove {
		return o, errors.New("cbb: ShardedOptions.MergeBelow must be below SplitAbove")
	}
	return o, nil
}

// shard is one partition: the Hilbert key range [lo, hi) it owns and the
// independent Tree holding its objects. A shard is live while the current
// directory lists it. One that a split or merge replaced stays fully
// queryable for views taken before, but every writer that reaches it
// routes again through the current directory (see lockShard).
type shard struct {
	lo, hi uint64
	t      *Tree
	path   string // snapshot file of a file-backed shard ("" in memory)
}

// shardDir is the immutable shard directory: shards sorted by lo, their
// ranges contiguous and covering the whole key space. Rebalancing publishes
// a new directory behind the tree's atomic pointer; readers that loaded the
// old one keep using it safely.
type shardDir struct {
	shards []*shard
}

// find returns the shard owning a Hilbert key.
func (d *shardDir) find(key uint64) *shard { return d.shards[d.position(key)] }

// position returns the directory index of the shard owning a Hilbert key, by
// binary search.
func (d *shardDir) position(key uint64) int {
	i := sort.Search(len(d.shards), func(i int) bool { return key < d.shards[i].hi })
	if i == len(d.shards) {
		i = len(d.shards) - 1 // keys are clamped; defensive
	}
	return i
}

// indexOf returns the position of a shard in the directory, or -1.
func (d *shardDir) indexOf(sh *shard) int {
	for i, s := range d.shards {
		if s == sh {
			return i
		}
	}
	return -1
}

// ShardedTree is a spatial index partitioned into independently writable
// shards by Hilbert order. It serves the same queries as a Tree — Search,
// SearchAll, Count, NearestNeighbors, BatchSearch, joins — with identical
// result sets, and the same snapshot-isolation guarantees per shard, but
// mutations on different shards proceed concurrently instead of queueing on
// one writer mutex. Create one with NewSharded (in memory) or CreateSharded
// / OpenSharded (file-backed, one snapshot file per shard).
type ShardedTree struct {
	opts  ShardedOptions
	curve *hilbert.Curve
	dir   atomic.Pointer[shardDir]

	// counter is shared by every shard tree (rtree.SetCounter), so IOStats
	// aggregates exactly once per node access across the whole engine.
	counter *storage.Counter

	// commitMu orders cross-shard commits against multi-shard snapshot
	// acquisition: ShardedBatch.Commit holds it exclusively while publishing
	// every touched shard, Snapshot holds it shared while pinning every
	// shard — so a ShardedView sees either none or all of a batch. Plain
	// single-shard mutations bypass it entirely (per-shard atomicity needs
	// no cross-shard ordering), keeping independent writers fully parallel.
	commitMu sync.RWMutex

	// batchMu serialises ShardedBatches against each other: a batch
	// acquires shard writer locks lazily as mutations route, and two
	// interleaved batches could otherwise deadlock on opposite acquisition
	// orders. Single-shard writers never take it.
	batchMu sync.Mutex

	// rebalancing admits one split/merge at a time (CAS guard).
	rebalancing atomic.Bool

	splits atomic.Int64
	merges atomic.Int64

	// poolCap remembers AttachBufferPoolBytes's budget so shards created by
	// later splits get their share (0 = no pool, -1 = unbounded).
	poolCap atomic.Int64

	// Persistence binding (file-backed engines only; see shard_persist.go).
	dirPath string     // directory holding shards.json + per-shard files
	fileMu  sync.Mutex // serialises shards.json rewrites
	seq     atomic.Uint64
}

// newShardedTree defaults opts and builds an engine with its routing curve
// and no shards yet, bound to the directory dir ("" in memory).
func newShardedTree(opts ShardedOptions, dir string) (*ShardedTree, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	curve, err := hilbert.New(opts.Universe, opts.HilbertBits)
	if err != nil {
		return nil, err
	}
	return &ShardedTree{opts: opts, curve: curve, counter: &storage.Counter{}, dirPath: dir}, nil
}

// NewSharded creates an empty in-memory ShardedTree.
func NewSharded(opts ShardedOptions) (*ShardedTree, error) {
	st, err := newShardedTree(opts, "")
	if err != nil {
		return nil, err
	}
	if err := st.createShards(); err != nil {
		return nil, err
	}
	return st, nil
}

// createShards builds an empty shard for each of the initial ranges,
// persists the directory file of a file-backed engine and publishes the
// directory. On failure it discards what it built.
func (st *ShardedTree) createShards() error {
	var shards []*shard
	var err error
	for _, rg := range st.initialRanges() {
		var sh *shard
		if sh, err = st.buildShard(rg[0], rg[1], st.nextShardPath(), nil); err != nil {
			break
		}
		shards = append(shards, sh)
	}
	if err == nil {
		_, err = st.persistDirectory(shards)
	}
	if err != nil {
		for _, sh := range shards {
			st.discardShard(sh)
		}
		return err
	}
	st.dir.Store(&shardDir{shards: shards})
	return nil
}

// initialRanges divides the curve's key space [0, MaxIndex] into
// opts.Shards contiguous ranges of near-equal width.
func (st *ShardedTree) initialRanges() [][2]uint64 {
	total := st.curve.MaxIndex() + 1 // <= 2^63, no overflow
	n := uint64(st.opts.Shards)
	if n > total {
		n = total
	}
	step, rem := total/n, total%n
	ranges := make([][2]uint64, 0, n)
	lo := uint64(0)
	for i := uint64(0); i < n; i++ {
		hi := lo + step
		if i < rem {
			hi++
		}
		ranges = append(ranges, [2]uint64{lo, hi})
		lo = hi
	}
	return ranges
}

// adoptShardTree wires an existing Tree (fresh, Created, or Opened) into
// the engine's shared accounting.
func (st *ShardedTree) adoptShardTree(t *Tree) {
	t.tree.SetCounter(st.counter)
	if cap := st.poolCap.Load(); cap != 0 {
		t.AttachBufferPoolBytes(st.shardPoolQuota(cap))
	}
}

// shardPoolQuota splits a total pool budget in bytes across the current
// shards.
func (st *ShardedTree) shardPoolQuota(total int64) int64 {
	if total <= 0 {
		return 0 // unbounded
	}
	n := 1
	if d := st.dir.Load(); d != nil {
		n = len(d.shards)
	}
	return max(total/int64(n), 1)
}

// Options returns the effective configuration.
func (st *ShardedTree) Options() ShardedOptions { return st.opts }

// NumShards returns the current number of shards.
func (st *ShardedTree) NumShards() int { return len(st.dir.Load().shards) }

// ShardLens returns the object count of every shard, in directory order.
func (st *ShardedTree) ShardLens() []int {
	d := st.dir.Load()
	out := make([]int, len(d.shards))
	for i, sh := range d.shards {
		out[i] = sh.t.Len()
	}
	return out
}

// RebalanceStats reports how many shard splits and merges have run.
func (st *ShardedTree) RebalanceStats() (splits, merges int64) {
	return st.splits.Load(), st.merges.Load()
}

// key routes a rectangle: the Hilbert key of its centre, clamped to the
// universe. Splits partition items by this same key, so an object's shard
// is always the one owning its key.
func (st *ShardedTree) key(r Rect) uint64 { return st.curve.IndexRect(r) }

// keyChunk is how many items a fanout worker keys at a time.
const keyChunk = 8192

// routeOrder validates the items and returns their routing keys in Hilbert
// order, ties in input order, keyed on the fanout workers and radix sorted —
// a total order, so the result does not depend on either.
func (st *ShardedTree) routeOrder(items []Item) ([]rtree.Keyed, error) {
	if err := st.checkItems(items); err != nil {
		return nil, err
	}
	return rtree.KeyOrder(len(items), func(i int) uint64 { return st.key(items[i].Rect) }), nil
}

// checkItems rejects a batch holding a rectangle the engine cannot route,
// the first in input order.
func (st *ShardedTree) checkItems(items []Item) error {
	for i := range items {
		if err := st.checkRect(items[i].Rect); err != nil {
			return err
		}
	}
	return nil
}

func (st *ShardedTree) checkRect(r Rect) error {
	if !r.Valid() || r.Dims() != st.opts.Dims {
		return fmt.Errorf("cbb: invalid %d-dimensional rectangle for a %d-dimensional sharded tree", r.Dims(), st.opts.Dims)
	}
	return nil
}

// lockShard returns the shard owning a Hilbert key with its writer lock
// held: it locks the owner the current directory names and keeps it only if
// the directory still routes the key there, and routes again otherwise. The
// re-check is exact because publishReplacement stores a new directory only
// while it holds the writer lock of every shard it replaces: a writer that
// gets a replaced shard's lock afterwards sees a directory that no longer
// routes its key there, and a writer that holds the lock blocks the
// replacement.
func (st *ShardedTree) lockShard(key uint64) *shard {
	for {
		sh := st.dir.Load().find(key)
		sh.t.wmu.Lock()
		if st.dir.Load().find(key) == sh {
			return sh
		}
		sh.t.wmu.Unlock()
	}
}

// Insert adds an object, routed to the shard owning its centre's Hilbert
// key. Writers on different shards run concurrently; two writers on the
// same shard serialise on that shard's writer mutex only.
func (st *ShardedTree) Insert(r Rect, id ObjectID) error {
	if err := st.checkRect(r); err != nil {
		return err
	}
	sh := st.lockShard(st.key(r))
	err := sh.t.insertLocked(r, id)
	sh.t.wmu.Unlock()
	if err != nil {
		return err
	}
	st.maybeSplit(sh)
	return nil
}

// Delete removes the object with the exact rectangle and id, routed like
// Insert (same rectangle, same centre, same shard — across splits and
// merges, because rebalancing partitions by the same key).
func (st *ShardedTree) Delete(r Rect, id ObjectID) (bool, error) {
	if err := st.checkRect(r); err != nil {
		return false, err
	}
	sh := st.lockShard(st.key(r))
	found, err := sh.t.deleteLocked(r, id)
	sh.t.wmu.Unlock()
	if err != nil || !found {
		return found, err
	}
	st.maybeMerge(sh)
	return found, nil
}

// InsertItems ingests a batch of items grouped by shard: items are sorted
// into Hilbert order once, then each run belonging to one shard rides that
// tree's batch fast path (see Tree.InsertItems) and is published as one
// epoch. This is the high-throughput ingest path — per-shard commit cost is
// amortised over the run and concurrent InsertItems calls on disjoint
// regions do not contend. Unlike Begin, the ingest is atomic per shard, not
// across shards.
func (st *ShardedTree) InsertItems(items []Item) error {
	return st.insertRuns(items, func(key uint64) (*shard, error) { return st.lockShard(key), nil },
		func(sh *shard, run []Item) error {
			err := sh.t.insertItemsLocked(run)
			sh.t.wmu.Unlock()
			if err == nil {
				st.maybeSplit(sh)
			}
			return err
		})
}

// insertRuns sorts items into Hilbert order once and applies them run by
// run: route claims the shard owning the run's first key, and apply gets
// that shard with the items keyed below its hi.
func (st *ShardedTree) insertRuns(items []Item, route func(key uint64) (*shard, error), apply func(sh *shard, run []Item) error) error {
	ks, err := st.routeOrder(items)
	if err != nil {
		return err
	}
	var run []Item // reused per shard
	for i := 0; i < len(ks); {
		sh, err := route(ks[i].Key)
		if err != nil {
			return err
		}
		run = run[:0]
		for ; i < len(ks) && ks[i].Key < sh.hi; i++ {
			run = append(run, items[ks[i].Orig])
		}
		if err := apply(sh, run); err != nil {
			return err
		}
	}
	return nil
}

// BulkLoad builds the empty sharded tree from items: each shard bulk-loads
// its key-range's partition with the variant's packing strategy, the shards
// concurrently. The load is all or nothing — every target shard is checked
// to be empty before any is built, and the built shards are published
// together, as one cross-shard batch, only when every build succeeded. It is
// a maintenance operation like Tree.BulkLoad: do not run it concurrently with
// other writers.
func (st *ShardedTree) BulkLoad(items []Item) error {
	sb, _ := st.Begin()
	defer sb.Rollback() // no-op once published
	if err := st.checkItems(items); err != nil {
		return err
	}
	d := st.dir.Load()
	// Each item's shard, found on the fanout workers; then one counting pass
	// sizes every shard's group and one pass fills them in input order.
	owner := make([]int32, len(items))
	fanout.ForEachChunk(len(items), 0, keyChunk, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			owner[i] = int32(d.position(st.key(items[i].Rect)))
		}
	})
	sizes := make([]int, len(d.shards))
	for _, o := range owner {
		sizes[o]++
	}
	groups := make([][]Item, len(d.shards))
	for i, n := range sizes {
		groups[i] = make([]Item, 0, n)
	}
	for i, o := range owner {
		groups[o] = append(groups[o], items[i])
	}
	for i, sh := range d.shards {
		if len(groups[i]) == 0 {
			continue
		}
		if _, _, err := sb.batchFor(sh.lo); err != nil {
			return err
		}
		if n := sh.t.Len(); n != 0 {
			return fmt.Errorf("cbb: BulkLoad requires an empty sharded tree: shard %d holds %d objects", i, n)
		}
	}
	errs := make([]error, len(d.shards))
	fanout.ForEachChunk(len(d.shards), 0, 1, func(_, i, _ int) {
		if len(groups[i]) > 0 {
			errs[i] = d.shards[i].t.bulkLoadLocked(groups[i])
		}
	})
	if err := cmp.Or(errs...); err != nil {
		return err
	}
	sb.publish()
	for _, sh := range d.shards {
		st.maybeSplit(sh)
	}
	return nil
}

// Begin opens a cross-shard writer batch: mutations route to their shards
// as usual but accumulate in per-shard batches that Commit publishes
// together — a ShardedView acquired at any moment observes either none or
// all of them. That atomicity is to views, not to crashes: a file-backed
// shard's part becomes durable with that shard's own Flush (see
// ShardedTree.Flush). ShardedBatches are serialised against each other;
// plain Insert/Delete calls on other shards keep running concurrently.
func (st *ShardedTree) Begin() (*ShardedBatch, error) {
	st.batchMu.Lock()
	return &ShardedBatch{st: st, open: make(map[*shard]*Batch)}, nil
}

// ShardedBatch is an open cross-shard transaction created with
// ShardedTree.Begin. It must be used from one goroutine and finished with
// exactly one Commit or Rollback.
type ShardedBatch struct {
	st   *ShardedTree
	open map[*shard]*Batch
	done bool
}

// batchFor lazily opens (and caches) the per-shard batch owning a key,
// returning the shard alongside so callers can group further keys in
// [sh.lo, sh.hi) onto the same batch. A shard the batch holds open stays
// live, so the directory routes the key to it exactly when it owns the key.
func (sb *ShardedBatch) batchFor(key uint64) (*shard, *Batch, error) {
	if sh := sb.st.dir.Load().find(key); sb.open[sh] != nil {
		return sh, sb.open[sh], nil
	}
	sh := sb.st.lockShard(key)
	b, err := sh.t.beginLocked()
	if err != nil {
		return nil, nil, err
	}
	sb.open[sh] = b
	return sh, b, nil
}

// Insert adds an object to the batch; it becomes visible at Commit.
func (sb *ShardedBatch) Insert(r Rect, id ObjectID) error {
	if sb.done {
		return errBatchDone
	}
	if err := sb.st.checkRect(r); err != nil {
		return err
	}
	_, b, err := sb.batchFor(sb.st.key(r))
	if err != nil {
		return err
	}
	return b.Insert(r, id)
}

// InsertItems adds a batch of objects to the cross-shard transaction: items
// are sorted into Hilbert order once, each per-shard run is applied through
// that shard's fast batch-insert pipeline (see Tree.InsertItems), and
// everything becomes visible together at Commit.
func (sb *ShardedBatch) InsertItems(items []Item) error {
	if sb.done {
		return errBatchDone
	}
	return sb.st.insertRuns(items, func(key uint64) (*shard, error) {
		sh, _, err := sb.batchFor(key)
		return sh, err
	}, func(sh *shard, run []Item) error { return sb.open[sh].InsertItems(run) })
}

// Delete removes an object within the batch; the removal becomes visible at
// Commit. Found reflects the batch's own uncommitted state.
func (sb *ShardedBatch) Delete(r Rect, id ObjectID) (bool, error) {
	if sb.done {
		return false, errBatchDone
	}
	if err := sb.st.checkRect(r); err != nil {
		return false, err
	}
	_, b, err := sb.batchFor(sb.st.key(r))
	if err != nil {
		return false, err
	}
	return b.Delete(r, id)
}

// Commit publishes every touched shard's batch as one atomic step with
// respect to ShardedViews: a view acquisition is excluded for the duration
// of the multi-shard publish, so it sees all of the batch or none of it.
func (sb *ShardedBatch) Commit() error {
	if sb.done {
		return errBatchDone
	}
	sb.publish()
	for sh := range sb.open {
		sb.st.maybeSplit(sh)
		sb.st.maybeMerge(sh)
	}
	return nil
}

// publish commits every touched shard under the commit lock and ends the
// batch.
func (sb *ShardedBatch) publish() {
	sb.done = true
	sb.st.commitMu.Lock()
	for _, b := range sb.open {
		b.Commit()
	}
	sb.st.commitMu.Unlock()
	sb.st.batchMu.Unlock()
}

// Rollback discards the batch on every touched shard; readers never saw any
// of it. No-op on a finished batch.
func (sb *ShardedBatch) Rollback() {
	if sb.done {
		return
	}
	sb.done = true
	for _, b := range sb.open {
		b.Rollback()
	}
	sb.st.batchMu.Unlock()
}

// current returns the reader over every shard's last committed state, in
// directory order, built in buf's room: a caller that passes an array on its
// stack reads up to len(buf) shards without allocating. Each shard is loaded
// independently (no cross-shard consistency); Snapshot is the coordinated
// counterpart.
func (st *ShardedTree) current(buf []*clipindex.Snap) reader {
	r := reader(buf[:0])
	for _, sh := range st.dir.Load().shards {
		r = append(r, sh.t.idx.Snap())
	}
	return r
}

// shardRoom is the stack room the range reads give current.
type shardRoom [8]*clipindex.Snap

// Search calls visit for every object whose rectangle intersects q, fanning
// out only to shards whose root MBB intersects q (the directory-level skip
// costs no I/O); traversal stops early when visit returns false. The result
// set is identical to a single Tree holding the same objects. Like
// Tree.Search, it runs lock-free against each shard's last committed state;
// use Snapshot for a frozen cross-shard view.
func (st *ShardedTree) Search(q Rect, visit func(ObjectID, Rect) bool) {
	var room shardRoom
	st.current(room[:]).Search(q, visit)
}

// SearchAll returns every object intersecting q. Order follows the shard
// directory (Hilbert order), not a single tree's traversal order.
func (st *ShardedTree) SearchAll(q Rect) []Item { return st.current(nil).SearchAll(q) }

// Count returns the number of objects intersecting q.
func (st *ShardedTree) Count(q Rect) int {
	var room shardRoom
	return st.current(room[:]).Count(q)
}

// NearestNeighbors returns the k objects closest to p across all shards,
// ordered by ascending distance (ties broken by object id): one best-first
// search whose frontier starts with every shard's root.
func (st *ShardedTree) NearestNeighbors(k int, p Point) []Neighbor {
	return st.current(nil).NearestNeighbors(k, p)
}

// BatchSearch runs a batch of range queries over one internally acquired
// ShardedView (so every query observes one consistent cross-shard state),
// fanned out over worker goroutines with exact merged I/O accounting.
func (st *ShardedTree) BatchSearch(queries []Rect, opts BatchOptions) (BatchResult, error) {
	v := st.Snapshot()
	defer v.Close()
	return v.BatchSearch(queries, opts)
}

// Len returns the total number of indexed objects across shards.
func (st *ShardedTree) Len() int { return st.current(nil).Len() }

// Height returns the height of the tallest shard tree.
func (st *ShardedTree) Height() int { return st.current(nil).Height() }

// Bounds returns the MBB of all indexed objects across shards.
func (st *ShardedTree) Bounds() Rect { return st.current(nil).Bounds() }

// IOStats returns the I/O counters accumulated across every shard: all
// shard trees charge one shared counter, so each node access is counted
// exactly once engine-wide.
func (st *ShardedTree) IOStats() IOStats { return toIOStats(st.counter.Snapshot()) }

// ResetIOStats zeroes the shared counters and every shard's buffer pool.
func (st *ShardedTree) ResetIOStats() {
	for _, sh := range st.dir.Load().shards {
		sh.t.ResetIOStats() // counter reset is shared (idempotent); pools are per shard
	}
}

// AttachBufferPoolBytes divides an LRU buffer budget of the given total
// bytes evenly across the shards (per-shard pools: node ids are per-tree, so
// one pool cannot be shared). Shards created by later splits receive the
// same per-shard quota. byteCapacity <= 0 means unbounded, like
// Tree.AttachBufferPoolBytes; queries in flight finish on the pools they
// started with.
func (st *ShardedTree) AttachBufferPoolBytes(byteCapacity int64) {
	stored := byteCapacity
	if byteCapacity <= 0 {
		stored = -1 // distinguish "unbounded" from "no pool"
	}
	st.poolCap.Store(stored)
	quota := st.shardPoolQuota(byteCapacity)
	for _, sh := range st.dir.Load().shards {
		sh.t.AttachBufferPoolBytes(quota)
	}
}

// DetachBufferPool removes every shard's buffer pool.
func (st *ShardedTree) DetachBufferPool() {
	st.poolCap.Store(0)
	for _, sh := range st.dir.Load().shards {
		sh.t.DetachBufferPool()
	}
}

// BufferStats sums the buffer statistics across shards; ok is false when no
// pool is attached.
func (st *ShardedTree) BufferStats() (BufferStats, bool) {
	var out BufferStats
	any := false
	for _, sh := range st.dir.Load().shards {
		s, ok := sh.t.BufferStats()
		if ok {
			any = true
			out.Hits += s.Hits
			out.Misses += s.Misses
		}
	}
	return out, any
}

// Stats aggregates structural statistics across shards (Height is the
// maximum, the counts are sums) at each shard's last committed state. Like
// Tree.Stats it reads only published state and is safe while writers commit.
func (st *ShardedTree) Stats() Stats { return st.current(nil).Stats() }

// Validate checks every shard's structural invariants, the directory's
// (contiguous ranges covering the key space), and that every object lives
// in the shard owning its Hilbert key. Intended for tests; not cheap. It
// takes each shard's writer lock in turn, so it waits for the mutation or
// batch in flight there.
func (st *ShardedTree) Validate() error {
	d := st.dir.Load()
	if err := st.checkDirectoryRanges(d.shards); err != nil {
		return err
	}
	for i, sh := range d.shards {
		sh.t.wmu.Lock()
		err := sh.t.validateLocked()
		items, aerr := sh.t.tree.AllItems()
		sh.t.wmu.Unlock()
		if err = cmp.Or(err, aerr); err != nil {
			return fmt.Errorf("cbb: shard %d: %w", i, err)
		}
		for _, it := range items {
			if key := st.key(it.Rect); key < sh.lo || key >= sh.hi {
				return fmt.Errorf("cbb: shard %d [%d, %d) holds object %d with key %d", i, sh.lo, sh.hi, it.Object, key)
			}
		}
	}
	return nil
}

// checkDirectoryRanges checks a shard list's layout: contiguous ranges
// covering exactly the curve's key space.
func (st *ShardedTree) checkDirectoryRanges(shards []*shard) error {
	want := uint64(0)
	for i, sh := range shards {
		if sh.lo != want || sh.lo >= sh.hi {
			return fmt.Errorf("cbb: shard %d has key range [%d, %d), want start %d", i, sh.lo, sh.hi, want)
		}
		want = sh.hi
	}
	if max := st.curve.MaxIndex() + 1; want != max {
		return fmt.Errorf("cbb: shards cover keys up to %d, want %d", want, max)
	}
	return nil
}

// --- skew-driven rebalancing ------------------------------------------------
//
// The directory changes only in publishReplacement, under the rebalancing
// guard; a split or merge that holds the guard sees it fixed.

func (st *ShardedTree) maybeSplit(sh *shard) {
	if st.opts.SplitAbove <= 0 || sh.t.Len() <= st.opts.SplitAbove {
		return
	}
	st.splitShard(sh)
}

func (st *ShardedTree) maybeMerge(sh *shard) {
	if st.opts.MergeBelow <= 0 || sh.t.Len() >= st.opts.MergeBelow {
		return
	}
	d := st.dir.Load()
	i := d.indexOf(sh)
	if i < 0 {
		return
	}
	// Prefer the smaller neighbour, to keep the merged shard well under the
	// split threshold.
	left, right := i-1, i+1
	pick := -1
	switch {
	case left >= 0 && right < len(d.shards):
		if d.shards[left].t.Len() <= d.shards[right].t.Len() {
			pick = left
		} else {
			pick = i
		}
	case left >= 0:
		pick = left
	case right < len(d.shards):
		pick = i
	}
	if pick < 0 {
		return
	}
	st.mergeShards(pick)
}

// SplitShard bisects shard i's Hilbert key range at the median occupied key
// and rebuilds both halves, publishing a new directory; readers (including
// views) are never blocked and writers to the shard only while the
// halves are built. It is the manual trigger of the same path automatic
// splits take; it is a no-op (nil error) when the shard cannot be split
// (fewer than 2 distinct keys) or another rebalance is in flight, and fails,
// changing nothing, when a page of the shard cannot be read or the shard is
// read-only (ErrReadOnly).
func (st *ShardedTree) SplitShard(i int) error {
	d := st.dir.Load()
	if i < 0 || i >= len(d.shards) {
		return fmt.Errorf("cbb: SplitShard(%d): shard index out of range", i)
	}
	if d.shards[i].t.ReadOnly() {
		return fmt.Errorf("cbb: SplitShard(%d): %w", i, ErrReadOnly)
	}
	return st.splitShard(d.shards[i])
}

func (st *ShardedTree) splitShard(sh *shard) error {
	if !st.rebalancing.CompareAndSwap(false, true) {
		return nil // one rebalance at a time; the trigger re-fires later
	}
	defer st.rebalancing.Store(false)
	if st.dir.Load().indexOf(sh) < 0 || sh.hi-sh.lo < 2 {
		return nil // replaced since the caller routed to it
	}
	sh.t.wmu.Lock()
	defer sh.t.wmu.Unlock()
	items, err := sh.t.tree.AllItems()
	if err != nil || len(items) < 2 {
		return err
	}
	ks, err := st.routeOrder(items)
	if err != nil {
		return err
	}
	// Bisect at the median occupied key, advancing past an equal prefix so
	// both halves are non-empty; all keys equal means the shard cannot be
	// subdivided by Hilbert range.
	mid := len(ks) / 2
	for mid < len(ks) && ks[mid].Key == ks[0].Key {
		mid++
	}
	if mid == len(ks) {
		return nil
	}
	splitKey := ks[mid].Key
	var parts [2][]Item // the keys below splitKey, and the rest
	for _, k := range ks {
		half := 0
		if k.Key >= splitKey {
			half = 1
		}
		parts[half] = append(parts[half], items[k.Orig])
	}
	// File names are taken in order, then both halves are built concurrently.
	bounds := [3]uint64{sh.lo, splitKey, sh.hi}
	paths := [2]string{st.nextShardPath(), st.nextShardPath()}
	var halves [2]*shard
	var errs [2]error
	fanout.ForEachChunk(2, 0, 1, func(_, i, _ int) {
		halves[i], errs[i] = st.buildShard(bounds[i], bounds[i+1], paths[i], parts[i])
	})
	if err = cmp.Or(errs[0], errs[1]); err == nil {
		err = st.publishReplacement([]*shard{sh}, halves[:])
	}
	if err != nil {
		st.discardShard(halves[0])
		st.discardShard(halves[1])
		return err
	}
	st.splits.Add(1)
	return nil
}

// MergeShards merges shards i and i+1 into one shard owning the union of
// their key ranges. Like SplitShard it is the manual trigger of the
// automatic path; it returns a nil error without merging when either shard
// is being rebalanced concurrently, and fails like SplitShard.
func (st *ShardedTree) MergeShards(i int) error {
	d := st.dir.Load()
	if i < 0 || i+1 >= len(d.shards) {
		return fmt.Errorf("cbb: MergeShards(%d): needs two adjacent shards", i)
	}
	if d.shards[i].t.ReadOnly() || d.shards[i+1].t.ReadOnly() {
		return fmt.Errorf("cbb: MergeShards(%d): %w", i, ErrReadOnly)
	}
	return st.mergeShards(i)
}

func (st *ShardedTree) mergeShards(i int) error {
	if !st.rebalancing.CompareAndSwap(false, true) {
		return nil
	}
	defer st.rebalancing.Store(false)
	d := st.dir.Load()
	if i < 0 || i+1 >= len(d.shards) {
		return nil
	}
	left, right := d.shards[i], d.shards[i+1]
	left.t.wmu.Lock()
	defer left.t.wmu.Unlock()
	// TryLock avoids a deadlock against an open ShardedBatch that holds the
	// right shard's writer lock and may be waiting to lock further shards:
	// a contended merge simply yields and retries on a later trigger.
	if !right.t.wmu.TryLock() {
		return nil
	}
	defer right.t.wmu.Unlock()
	if st.opts.SplitAbove > 0 && left.t.Len()+right.t.Len() > st.opts.SplitAbove*3/4 {
		return nil // hysteresis: never merge into an immediate split
	}
	items, err := left.t.tree.AllItems()
	more, rerr := right.t.tree.AllItems()
	if err = cmp.Or(err, rerr); err != nil {
		return err
	}
	merged, err := st.buildShard(left.lo, right.hi, st.nextShardPath(), append(items, more...))
	if err != nil {
		return err
	}
	if err := st.publishReplacement([]*shard{left, right}, []*shard{merged}); err != nil {
		st.discardShard(merged)
		return err
	}
	st.merges.Add(1)
	return nil
}

// buildShard constructs a new shard for [lo, hi) bulk-loaded with items —
// file-backed (its own snapshot file at path, from nextShardPath, flushed
// after the load, before publication) when the engine is, in-memory
// otherwise.
func (st *ShardedTree) buildShard(lo, hi uint64, path string, items []Item) (*shard, error) {
	var t *Tree
	var err error
	if path != "" {
		t, err = Create(path, st.opts.Options)
	} else {
		t, err = New(st.opts.Options)
	}
	if err != nil {
		return nil, err
	}
	st.adoptShardTree(t)
	sh := &shard{lo: lo, hi: hi, t: t, path: path}
	if len(items) > 0 {
		if err = t.BulkLoad(items); err == nil && path != "" {
			err = t.Flush()
		}
	}
	if err != nil {
		st.discardShard(sh)
		return nil, err
	}
	return sh, nil
}

// discardShard drops a freshly built shard that never got published.
func (st *ShardedTree) discardShard(sh *shard) {
	if sh != nil && sh.path != "" {
		sh.t.Close()
		removeShardFile(sh.path)
	}
}

// publishReplacement swaps a contiguous run of the directory's shards for
// their replacements — one shard for its two halves on a split, two adjacent
// shards for the merged one on a merge — in a new directory, persists the
// directory file (file-backed engines), stores the directory and, once the
// directory file is durable, closes and deletes the old shards' files — in
// that order, and while the old shards' writer locks are held, so the old and
// new shards hold identical content at the swap, a reader on either side
// observes the same objects, and lockShard's re-check is exact.
func (st *ShardedTree) publishReplacement(old, repl []*shard) error {
	d := st.dir.Load()
	i := d.indexOf(old[0])
	if i < 0 || i+len(old) > len(d.shards) || !slices.Equal(d.shards[i:i+len(old)], old) {
		return fmt.Errorf("cbb: shards vanished from the directory during rebalance")
	}
	shards := slices.Concat(d.shards[:i], repl, d.shards[i+len(old):])
	durable, err := st.persistDirectory(shards)
	if err != nil {
		return err
	}
	st.dir.Store(&shardDir{shards: shards})
	// The old shards' files go now, unless a crash could still bring back the
	// shards.json that names them (then they stay, as orphans). The rebuild
	// faulted every node of theirs in (AllItems), so no view reads a page of
	// them again, and the flushed replacements hold their objects, so nothing
	// is flushed. Tree.Close would take the writer locks this rebalance holds.
	for _, sh := range old {
		if durable && sh.t.pager != nil {
			sh.t.pager.Close()
			removeShardFile(sh.path)
		}
	}
	return nil
}
