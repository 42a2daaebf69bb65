// Package cbb is a spatial indexing library built around clipped bounding
// boxes (CBBs), reproducing Šidlauskas, Chester, Tzirita Zacharatou and
// Ailamaki, "Improving Spatial Data Processing by Clipping Minimum Bounding
// Boxes" (ICDE 2018).
//
// The library provides four classic R-tree variants (Guttman's quadratic
// R-tree, the Hilbert R-tree, the R*-tree, and the revised R*-tree) over a
// simulated paged store with exact I/O accounting, and augments any of them
// with clipped bounding boxes: per-node clip points that certify rectangular
// corner regions as dead space so range queries, updates, and spatial joins
// can skip nodes whose overlap with the probe is entirely empty.
//
// # Quick start
//
//	tree, err := cbb.New(cbb.Options{Dims: 2, Variant: cbb.RStarTree})
//	if err != nil { ... }
//	tree.Insert(cbb.R(0, 0, 10, 5), 1)
//	tree.Insert(cbb.R(20, 20, 24, 28), 2)
//	tree.Search(cbb.R(1, 1, 3, 3), func(id cbb.ObjectID, r cbb.Rect) bool {
//	    fmt.Println(id, r)
//	    return true
//	})
//
// Clipping is on by default (stairline clip points, the paper's CSTA); use
// Options.Clipping to select skyline clipping or to disable clipping
// entirely, e.g. to measure the I/O difference via Tree.IOStats.
//
// # One read path
//
// As in the paper (Section IV), clip points live in an auxiliary table
// beside the node pages and queries run the unmodified R-tree descent,
// consulting the table before visiting a child. A tree without clipping is
// therefore not a second engine but the same one with an empty table, and
// every query of every type — Tree, View, ShardedTree, ShardedView — runs
// through one reader over epoch-consistent (tree version, clip table)
// snapshots: one snapshot for a tree, one per shard for a sharded engine.
// Spatial joins have two entry points, one per paper algorithm: JoinItems
// (index nested loop) and Join (synchronised tree traversal); both accept
// any of the four types through the Reader interface.
//
// # Persistence
//
// A built tree can be serialised to a versioned, checksummed snapshot and
// reconstructed without rebuilding: SaveTo/Load round-trip through any
// io.Writer/io.Reader, while Create/Open bind a tree to a snapshot file.
// Open returns a tree that serves queries directly off the on-disk page
// file, faulting node pages in on demand through the same buffer pool and
// I/O counters as the in-memory simulation — and, when the file is
// writable, accepts Insert/Delete and commits the dirty pages back
// atomically (via a write-ahead log) on every Flush or Close. OpenReadOnly
// forces the previous read-only behaviour. See persist.go and the README's
// "Updates & durability" section.
//
// # Concurrency
//
// The engine is single-writer / multi-reader with snapshot isolation,
// implemented by copy-on-write epoch versioning: a mutation clones the nodes
// it touches and copies the chunks of the node directory it writes — each
// node's slot there holds its clip record too — and the commit publishes a
// new immutable version behind one atomic pointer. Readers never block
// writers and writers never block readers.
//
//   - Queries (Search, SearchAll, Count, NearestNeighbors, BatchSearch,
//     joins) may run from any number of goroutines at any time — including
//     concurrently with Insert, Delete, and open batches. Each query loads
//     the current version once and traverses it lock-free; it sees either
//     the state before a concurrent commit or after it, never a mix.
//   - Tree.Snapshot returns a pinned View: a frozen state of the index that
//     an arbitrarily long sequence of queries (and view-based joins) can
//     run against while writers keep committing. Close releases it.
//   - Writers are serialised by an internal writer lock. Tree.Begin opens a
//     Batch whose mutations are published to readers as one atomic commit.
//   - Stats reads only published state and may run at any time, as may
//     AttachBufferPool, DetachBufferPool and ResetIOStats. SaveTo,
//     WriteSnapshot and Validate take the writer lock: they wait for the
//     mutation or batch in flight, and readers keep running beside them.
//
// File-backed trees opened with Open keep the same guarantees; writer
// durability (Flush, Close) reuses the write-ahead-log commit and never
// blocks readers. These guarantees are enforced by race-detector regression
// and stress tests. See the README's "Concurrency model" section.
package cbb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// Point is a d-dimensional point (a slice of coordinates).
type Point = geom.Point

// Rect is an axis-aligned d-dimensional rectangle with inclusive bounds.
type Rect = geom.Rect

// Pt builds a Point from coordinates.
func Pt(coords ...float64) Point { return geom.Pt(coords...) }

// R builds a Rect from 2·d coordinates: R(x1, y1, x2, y2) in 2d,
// R(x1, y1, z1, x2, y2, z2) in 3d. It panics on invalid input; use NewRect
// for checked construction.
func R(coords ...float64) Rect { return geom.R(coords...) }

// NewRect builds a Rect from its minimum and maximum corner, validating the
// input.
func NewRect(lo, hi Point) (Rect, error) { return geom.NewRect(lo, hi) }

// ObjectID identifies an object stored in the index.
type ObjectID = rtree.ObjectID

// Item pairs an object id with its rectangle, used for bulk loading and as
// the probe input of joins.
type Item = rtree.Item

// Variant selects the R-tree construction strategy.
type Variant = rtree.Variant

// The four R-tree variants evaluated in the paper.
const (
	// QRTree is Guttman's original R-tree with the quadratic split.
	QRTree = rtree.Quadratic
	// HRTree is the Hilbert R-tree (bulk loaded along the Hilbert curve).
	HRTree = rtree.Hilbert
	// RStarTree is the R*-tree of Beckmann et al.
	RStarTree = rtree.RStar
	// RRStarTree is the revised R*-tree (the paper's strongest baseline).
	RRStarTree = rtree.RRStar
)

// ClipMethod selects how clip points are generated.
type ClipMethod int

// Clipping configurations.
const (
	// ClipStairline uses point-spliced (stairline) clip points — the paper's
	// CSTA, its most effective configuration and the library default.
	ClipStairline ClipMethod = iota
	// ClipSkyline uses object-situated (skyline) clip points — the paper's
	// CSKY, cheaper to build with a smaller footprint but less pruning.
	ClipSkyline
	// ClipNone disables clipping; the tree behaves as a plain R-tree.
	ClipNone
)

// String names the clipping configuration.
func (m ClipMethod) String() string {
	switch m {
	case ClipStairline:
		return "CSTA"
	case ClipSkyline:
		return "CSKY"
	case ClipNone:
		return "none"
	default:
		return fmt.Sprintf("ClipMethod(%d)", int(m))
	}
}

// Options configures a Tree.
type Options struct {
	// Dims is the dimensionality of indexed rectangles (required; 2 or 3 are
	// the extensively tested paths).
	Dims int
	// Variant selects the R-tree variant; the zero value is QRTree (Guttman's
	// quadratic split). It decides how inserts choose subtrees and split;
	// BulkLoad packs every variant but HRTree the same way.
	Variant Variant
	// Clipping selects the clip-point method (default ClipStairline).
	Clipping ClipMethod
	// MaxEntries is the node capacity M; 0 derives it from a 4 KiB page.
	MaxEntries int
	// MinEntries is the minimum fill m; 0 uses 40 % of MaxEntries.
	MinEntries int
	// MaxClipPoints is the paper's k, the maximum clip points kept per node;
	// 0 uses 2^(Dims+1).
	MaxClipPoints int
	// ClipThreshold is the paper's τ: a clip point is kept only if it prunes
	// at least this fraction of the node volume; 0 uses 2.5 %.
	ClipThreshold float64
	// Universe optionally bounds the data space (used by the Hilbert
	// variant); the zero Rect means "unknown".
	Universe Rect
}

func (o Options) withDefaults() (Options, error) {
	if o.Dims < 1 {
		return o, errors.New("cbb: Options.Dims must be at least 1")
	}
	if o.MaxEntries == 0 {
		o.MaxEntries = rtree.MaxEntriesForPage(storage.DefaultPageSize, o.Dims)
	}
	if o.MinEntries == 0 {
		o.MinEntries = o.MaxEntries * 2 / 5
		if o.MinEntries < 1 {
			o.MinEntries = 1
		}
	}
	if o.MaxClipPoints < 0 {
		return o, errors.New("cbb: Options.MaxClipPoints must not be negative")
	}
	if o.MaxClipPoints == 0 {
		o.MaxClipPoints = 1 << uint(o.Dims+1)
	}
	if o.ClipThreshold == 0 {
		o.ClipThreshold = 0.025
	}
	switch o.Clipping {
	case ClipStairline, ClipSkyline, ClipNone:
	default:
		return o, fmt.Errorf("cbb: unknown clipping method %d", int(o.Clipping))
	}
	return o, nil
}

// clipParams maps the options onto the clip index's parameters. ClipNone is
// K == 0: no node ever gets a clip point, so the table stays empty and its
// maintenance costs nothing.
func (o Options) clipParams() core.Params {
	p := core.Params{K: o.MaxClipPoints, Tau: o.ClipThreshold, Method: core.MethodStairline}
	switch o.Clipping {
	case ClipSkyline:
		p.Method = core.MethodSkyline
	case ClipNone:
		p.K = 0
	}
	return p
}

// Tree is a spatial index: an R-tree of the configured variant augmented
// with clipped bounding boxes (none at all with ClipNone). It is
// single-writer/multi-reader with snapshot isolation: read-only queries
// (Search, SearchAll, Count, NearestNeighbors, BatchSearch, joins) may run
// from any number of goroutines at any time, concurrently with mutations,
// and mutations are serialised internally — see the package documentation's
// Concurrency section, Snapshot, and Begin.
type Tree struct {
	opts Options
	tree *rtree.Tree
	idx  *clipindex.Index // over tree; its table stays empty with ClipNone

	// wmu serialises writers (Insert, Delete, BulkLoad, Batch, Flush,
	// Close): the engine is single-writer/multi-reader, so concurrent
	// mutators queue here while readers proceed lock-free on published
	// versions. batchOpen marks that a Batch currently holds wmu, so
	// Flush/Close can fail fast instead of self-deadlocking when called
	// from the goroutine that owns the open batch.
	wmu       sync.Mutex
	batchOpen atomic.Bool

	// Persistence binding (see persist.go): pager is the on-disk page store
	// of a tree opened with Open/OpenReadOnly or created with Create; mstore
	// is the memory-mapped store of a tree opened with OpenMmap (always
	// read-only). At most one of the two is set.
	pager  *storage.FilePager
	mstore *storage.MmapStore
}

// New creates an empty tree.
func New(opts Options) (*Tree, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg := rtree.Config{
		Dims:       opts.Dims,
		MaxEntries: opts.MaxEntries,
		MinEntries: opts.MinEntries,
		Variant:    opts.Variant,
		Universe:   opts.Universe,
	}
	base, err := rtree.New(cfg)
	if err != nil {
		return nil, err
	}
	idx, err := clipindex.New(base, opts.clipParams())
	if err != nil {
		return nil, err
	}
	return &Tree{opts: opts, tree: base, idx: idx}, nil
}

// Options returns the effective configuration of the tree.
func (t *Tree) Options() Options { return t.opts }

// current returns the reader over the last fully published commit (one
// atomic load, unpinned): tree version and clip table of the same epoch, so
// structural accessors (Len, Height, Bounds, NearestNeighbors) can never run
// ahead of what Search observes during the instant a commit is being
// published.
func (t *Tree) current() reader { return reader{t.idx.Snap()} }

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.current().Len() }

// Height returns the number of tree levels (0 when empty).
func (t *Tree) Height() int { return t.current().Height() }

// Bounds returns the MBB of all indexed objects (the zero Rect when empty).
func (t *Tree) Bounds() Rect { return t.current().Bounds() }

// Insert adds an object with the given rectangle and id. Duplicate ids are
// permitted but make Delete ambiguous; most applications use unique ids.
// The insertion is published to readers atomically when Insert returns;
// concurrent queries and open views are never blocked and never observe a
// half-applied mutation. Use Begin to batch many mutations into one
// published epoch.
func (t *Tree) Insert(r Rect, id ObjectID) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.insertLocked(r, id)
}

func (t *Tree) insertLocked(r Rect, id ObjectID) error {
	_, err := t.idx.Insert(r, id)
	return err
}

func (t *Tree) insertItemsLocked(items []Item) error {
	_, err := t.idx.InsertItems(items)
	return err
}

func (t *Tree) deleteLocked(r Rect, id ObjectID) (bool, error) {
	u, err := t.idx.Delete(r, id)
	return u.Deletes == 1, err
}

// InsertItems adds a batch of objects through the fast batch-insert
// pipeline and publishes them to readers as one atomic epoch: the batch is
// Hilbert-sorted, contiguous runs that share a target leaf are placed (or
// bulk-packed into grafted subtrees) together, every touched node is
// copy-on-write cloned at most once, and with clipping enabled the clip
// table is maintained once from the aggregated trace. A batch on an empty
// tree is bulk packed like BulkLoad. Equivalent to inserting each item
// individually — the same objects become searchable with identical result
// sets — but 10-100× cheaper for large batches. Inside an explicit Batch
// use Batch.InsertItems instead.
func (t *Tree) InsertItems(items []Item) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.insertItemsLocked(items)
}

// Delete removes the object with the exact rectangle and id. It reports
// whether the object was found. Like Insert, the removal is published to
// readers atomically on return.
func (t *Tree) Delete(r Rect, id ObjectID) (bool, error) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.deleteLocked(r, id)
}

// BulkLoad builds the tree from scratch out of the given items using the
// variant's bulk-loading strategy (Hilbert packing for HRTree,
// Sort-Tile-Recursive for the others) and then computes clip points for
// every node. The tree must be empty.
func (t *Tree) BulkLoad(items []Item) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.bulkLoadLocked(items)
}

// bulkLoadLocked is BulkLoad under the caller's writer lock (or open batch).
func (t *Tree) bulkLoadLocked(items []Item) error {
	if err := t.tree.BulkLoad(items); err != nil {
		return err
	}
	return t.idx.RebuildAll()
}

// Search calls visit for every object whose rectangle intersects q;
// traversal stops early when visit returns false. With clipping enabled,
// child nodes whose overlap with q is entirely certified dead space are
// skipped; the result set is always identical to an unclipped search. An
// invalid query, or one whose dimensionality differs from the tree's,
// matches nothing.
func (t *Tree) Search(q Rect, visit func(ObjectID, Rect) bool) { t.current().Search(q, visit) }

// SearchAll returns every object intersecting q as a slice of items.
func (t *Tree) SearchAll(q Rect) []Item { return t.current().SearchAll(q) }

// Count returns the number of objects intersecting q.
func (t *Tree) Count(q Rect) int { return t.current().Count(q) }

// BatchOptions configures BatchSearch.
type BatchOptions struct {
	// Workers is the number of goroutines the batch is fanned out over;
	// 0 (or negative) uses GOMAXPROCS, 1 runs sequentially. The effective
	// count is clamped to the number of queries.
	Workers int
	// Collect gathers the matching items of every query in
	// BatchResult.Items instead of only counting matches.
	Collect bool
}

// BatchResult is the outcome of a BatchSearch, index-aligned with the query
// batch. Counts, Items, and IO are deterministic: they equal what a
// sequential loop over the same queries would produce, for any worker count.
type BatchResult struct {
	// Counts holds the number of matches of each query.
	Counts []int
	// Items holds the matches of each query (nil unless Options.Collect).
	Items [][]Item
	// IO is the exact I/O incurred by this batch: the sum of what its
	// queries charged to the tree's cumulative IOStats.
	IO IOStats
	// Workers is the number of goroutines actually used.
	Workers int
}

// BatchSearch runs a batch of range queries against the tree's last
// committed state on a pool of worker goroutines. Each query charges the
// tree's I/O counters once as it ends and BatchResult.IO sums what the
// queries charged, so it is exact and the tree's cumulative IOStats advance
// exactly as in a sequential run. BatchSearch is itself safe to call
// concurrently with other read-only queries.
func BatchSearch(t *Tree, queries []Rect, opts BatchOptions) (BatchResult, error) {
	if t == nil {
		return BatchResult{}, errors.New("cbb: BatchSearch requires a tree")
	}
	return t.current().BatchSearch(queries, opts)
}

// Neighbor is one result of a nearest-neighbour query: an object, its
// rectangle, and its squared distance to the query point.
type Neighbor = rtree.Neighbor

// NearestNeighbors returns the k objects closest to the point p (by minimum
// Euclidean distance to their rectangles), ordered by ascending distance and,
// at equal distance, by object id. The answer is the same with and without
// clipping; clip points raise distance bounds and so save node reads.
func (t *Tree) NearestNeighbors(k int, p Point) []Neighbor {
	return t.current().NearestNeighbors(k, p)
}

// IOStats is a snapshot of the simulated I/O counters: the number of leaf
// and directory node accesses performed by searches and joins, the number of
// node writes performed by updates, and the number of clip-table
// recomputations.
type IOStats struct {
	LeafReads int64
	DirReads  int64
	Writes    int64
	Reclips   int64
}

// toIOStats converts an internal counter snapshot into the public IOStats.
func toIOStats(s storage.Snapshot) IOStats {
	return IOStats{LeafReads: s.LeafReads, DirReads: s.DirReads, Writes: s.Writes, Reclips: s.Reclips}
}

// IOStats returns the accumulated I/O counters.
func (t *Tree) IOStats() IOStats {
	return toIOStats(t.tree.Counter().Snapshot())
}

// ResetIOStats zeroes the I/O counters and, when a buffer pool is attached,
// also empties the pool and zeroes its hit/miss statistics (a cold start).
// It is typically called before a measured query batch; resetting both
// together guarantees that no buffer state leaks from one measured run into
// the next.
func (t *Tree) ResetIOStats() { t.tree.ResetIO() }

// AttachBufferPool places an LRU buffer pool of the given node capacity in
// front of the simulated disk: every node access additionally touches the
// pool, and BufferStats reports how many accesses hit it. A capacity <= 0
// means unbounded (everything hits after first touch). The pool is
// lock-striped so parallel batch searches do not serialise on one mutex;
// see storage.BufferPool for the sharding semantics. Attaching replaces
// any previous pool; a query in flight finishes on the pool it started with.
func (t *Tree) AttachBufferPool(capacity int) {
	t.tree.SetBufferPool(storage.NewBufferPool(capacity))
}

// AttachBufferPoolBytes is AttachBufferPool with the budget expressed in
// resident bytes instead of a page count: every node access charges the
// node's encoded size, so a compressed (v2) snapshot genuinely fits more of
// its tree into the same budget than an uncompressed one — the honest way to
// compare storage formats under one memory limit. A byteCapacity <= 0 means
// unbounded.
func (t *Tree) AttachBufferPoolBytes(byteCapacity int64) {
	t.tree.SetBufferPool(storage.NewBufferPoolBytes(byteCapacity))
}

// DetachBufferPool removes the attached buffer pool, if any.
func (t *Tree) DetachBufferPool() { t.tree.SetBufferPool(nil) }

// BufferStats reports the hit/miss counts of the attached buffer pool.
type BufferStats struct {
	Hits   int64
	Misses int64
}

// HitRate returns the fraction of accesses served from the buffer (0 when
// the pool has not been touched).
func (s BufferStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// BufferStats returns the attached pool's statistics; ok is false when no
// pool is attached.
func (t *Tree) BufferStats() (stats BufferStats, ok bool) {
	p := t.tree.BufferPool()
	if p == nil {
		return BufferStats{}, false
	}
	hits, misses := p.Stats()
	return BufferStats{Hits: hits, Misses: misses}, true
}

// Stats summarises the structure of the index.
type Stats struct {
	Objects        int
	Height         int
	LeafNodes      int
	DirNodes       int
	ClipPoints     int
	AvgClipPoints  float64
	ClipTableBytes int
	// PlaneBytes is the total resident size of the in-memory quantised SoA
	// filter planes the scan kernels prune with (charged to buffer pools on
	// top of each node's encoded page size).
	PlaneBytes int
}

// Stats returns structural statistics of the tree and its clip table at the
// last committed state. It reads only published, immutable state, so it is
// safe at any time — including while a writer commits — but walks every
// node; it is not cheap.
func (t *Tree) Stats() Stats { return t.current().Stats() }

// Validate checks the structural invariants of the tree and the soundness
// of every stored clip point, under the writer lock. It is intended for tests
// and debugging; it is not cheap.
func (t *Tree) Validate() error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.validateLocked()
}

func (t *Tree) validateLocked() error {
	if err := t.tree.Validate(); err != nil {
		return err
	}
	return t.idx.Validate()
}
