// Package rtree implements a disk-style R-tree framework and the four
// variants evaluated in the paper: the quadratic R-tree of Guttman
// (QR-tree), the Hilbert R-tree (HR-tree, bulk loaded along the Hilbert
// curve), the R*-tree of Beckmann et al., and the revised R*-tree
// (RR*-tree). All variants share the same node layout and query algorithm
// and differ only in how they distribute entries into nodes, exactly as the
// paper assumes when it plugs clipped bounding boxes into each of them.
//
// Every node access during a query is routed through a storage.Counter so
// the evaluation can measure leaf and directory accesses, the paper's I/O
// metric. Nodes live in an arena that is either built in memory or bound to
// a storage.PageStore holding one page per node (Figure 4a; encode.go,
// encode_v2.go), and there is one door each way. Off pages: Tree.fault is
// the only code that turns a page into a node, on first access to it, and
// hydrate is the only code that brings every page in. A tree opened with
// OpenPaged keeps its store, its page map and the header's counts, reads
// through fault, and hydrates on Materialize, Validate or its first
// mutation, when hydrate's recount is held to the header; a tree loaded
// with Load is the same open hydrated at once, adopting the recount and
// keeping neither store nor page map — an ordinary in-memory tree. Onto
// pages: Save writes a whole tree, FlushDirty the nodes mutated since the
// last flush, both through a PageCodec argument.
//
// A node keeps its rectangles once: one exact store (flat float64
// coordinates plus a parallel reference array, the in-memory form of the
// paper's Figure 4a page) and one filter layer derived from it (16-bit SoA
// planes, quant.go). Entry and NodeInfo are views of that store; the
// rectangles they — and every query callback — hand out alias immutable node
// storage, are read-only, and stay valid for the life of the process (see
// Entry).
package rtree

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"cbb/internal/geom"
	"cbb/internal/hilbert"
	"cbb/internal/storage"
)

// ErrReadOnly is returned by mutating operations on a tree that was
// explicitly opened read-only (OpenPaged with readonly set, e.g. from a
// snapshot on read-only media or in the compressed v2 codec). Writable
// file-backed trees accept mutations and write dirty nodes back through
// FlushDirty.
var ErrReadOnly = errors.New("rtree: tree is read-only")

// Variant selects the node-organisation strategy.
type Variant int

// The four R-tree variants of the paper's evaluation.
const (
	// Quadratic is Guttman's original R-tree with quadratic-cost split
	// (the paper's QR-tree).
	Quadratic Variant = iota
	// Hilbert is the Hilbert R-tree: bulk loaded by Hilbert order of object
	// centres, with order-preserving dynamic inserts (the paper's HR-tree).
	Hilbert
	// RStar is the R*-tree: margin/overlap-driven splits and forced
	// reinsertion on first overflow per level.
	RStar
	// RRStar is the revised R*-tree: overlap-minimising subtree choice and
	// perimeter-weighted splits, without forced reinsertion.
	RRStar
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case Quadratic:
		return "QR-tree"
	case Hilbert:
		return "HR-tree"
	case RStar:
		return "R*-tree"
	case RRStar:
		return "RR*-tree"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// AllVariants lists the four variants in the order the paper's figures use.
func AllVariants() []Variant { return []Variant{Quadratic, Hilbert, RStar, RRStar} }

// ObjectID identifies a data object stored in a leaf entry.
type ObjectID int64

// NodeID identifies a node in the tree arena. InvalidNode (-1) is the null
// reference.
type NodeID int32

// InvalidNode is the null node reference.
const InvalidNode NodeID = -1

// Entry is one slot of a node as a by-value item: a rectangle plus either a
// child node reference (directory nodes; Object is zero) or an object id
// (leaf nodes; Child is InvalidNode). Nodes do not store Entry values — they
// store flat coordinate and reference arrays (see node) — so an Entry is
// either an item on its way into a node (its Rect is copied on arrival) or a
// view of one slot, whose Rect aliases the node's coordinate storage.
//
// View contract: a Rect obtained from a node — through Entry, NodeInfo.Rect,
// All, or a Search/NearestNeighbors/join callback — aliases immutable node
// storage. It is read-only, stays bit-unchanged for the life of the process
// (no mutation, rollback, or flush ever writes to it), and its Lo/Hi are
// capacity-capped, so appending to them copies instead of overwriting the
// neighbouring coordinates.
type Entry struct {
	Rect   geom.Rect
	Child  NodeID
	Object ObjectID
}

// node is the in-memory form of the Figure 4a page: a header plus M slots of
// <rectangle, reference>. The slots are held once, as two flat arrays — boxes
// (exact coordinates) and refs — with one filter layer derived from boxes
// (qmbb/qplanes, see quant.go).
type node struct {
	id     NodeID
	parent NodeID
	leaf   bool
	level  int // 0 = leaf level
	// born is the writer epoch that created this node object (creation,
	// clone, or decode). A node whose born epoch predates the writer's
	// current batch belongs to a published version and is immutable: the
	// writer must clone it (Tree.mutable) before changing boxes, refs, leaf,
	// or level. The parent pointer and the cached Hilbert LHV are
	// writer-private metadata the read paths never consult, so they may be
	// refreshed in place on shared node objects.
	born uint64
	// boxes is the only exact store of the slot rectangles: 2·dims
	// contiguous float64 per slot (Lo extents then Hi extents), in slot
	// order. refs holds the slot references in the same order: the child
	// node id on directory nodes, the object id on leaves.
	//
	// Aliasing rule: rect and entry hand out views that alias boxes, and
	// those views outlive the node (orphans awaiting reinsertion, split
	// groups, every Rect a visit callback ever received). So the backing
	// arrays are never overwritten in place: appendEntry writes only beyond
	// len (into spare capacity, or a grown copy), and removeAt, setRect, and
	// setEntries install fresh arrays. Mutate slots only through those four
	// methods, each followed by Tree.touch.
	boxes []float64
	refs  []int64
	// qmbb and qplanes are the quantised SoA filter layer (see quant.go):
	// qmbb holds the node MBB the planes are quantised against (dims Lo
	// extents then dims Hi extents, like one boxes record), and qplanes holds
	// the 16-bit grid coordinates of the slot bounds in dimension-major SoA
	// order (lo plane then hi plane per dimension), packed four lanes per
	// uint64 word. The scan kernels test slots against these planes first
	// and touch boxes only for survivors. Derived from boxes by syncDerived
	// on every mutation; the v2 fault-in path installs the page's stored grid
	// coordinates instead (bit-identical pruning across stores — see
	// decodeNodeV2).
	qmbb    []float64
	qplanes []uint64
	// hilbertLHV is the largest Hilbert value of the subtree, maintained
	// only by the Hilbert variant.
	hilbertLHV uint64
	// encSize is the node's encoded page size in bytes: the exact stored
	// size for nodes decoded from a snapshot, or the v1 layout size for
	// in-memory nodes (refreshed by syncDerived on every mutation).
	// Byte-budget buffer pools charge residency by it, so compressed and raw
	// pages share one budget honestly.
	encSize int32
}

// count returns the number of slots in use.
func (n *node) count() int { return len(n.refs) }

// rect returns slot i's rectangle as a view of boxes (no allocation).
func (n *node) rect(i, dims int) geom.Rect { return boxRect(n.boxes, i, dims) }

// boxRect views record i of a flat coordinate array as a Rect whose Lo and
// Hi are capacity-capped sub-slices, so a caller's append reallocates instead
// of writing into the next coordinates.
func boxRect(boxes []float64, i, dims int) geom.Rect {
	off := i * 2 * dims
	return geom.Rect{Lo: boxes[off : off+dims : off+dims], Hi: boxes[off+dims : off+2*dims : off+2*dims]}
}

// child returns slot i's child node id (directory nodes).
func (n *node) child(i int) NodeID { return NodeID(n.refs[i]) }

// object returns slot i's object id (leaf nodes).
func (n *node) object(i int) ObjectID { return ObjectID(n.refs[i]) }

// entry returns slot i as a by-value view.
func (n *node) entry(i, dims int) Entry {
	if n.leaf {
		return Entry{Rect: n.rect(i, dims), Child: InvalidNode, Object: n.object(i)}
	}
	return Entry{Rect: n.rect(i, dims), Child: n.child(i)}
}

// entries returns every slot as a by-value view, for the algorithms that
// permute whole entry sets (splits, forced reinsertion, condensing).
func (n *node) entries(dims int) []Entry {
	out := make([]Entry, n.count())
	for i := range out {
		out[i] = n.entry(i, dims)
	}
	return out
}

// ref returns the reference an entry stores in a node of n's kind.
func (n *node) ref(e Entry) int64 {
	if n.leaf {
		return int64(e.Object)
	}
	return int64(e.Child)
}

// appendEntry adds e as the last slot, copying its coordinates.
func (n *node) appendEntry(e Entry) {
	n.boxes = append(append(n.boxes, e.Rect.Lo...), e.Rect.Hi...)
	n.refs = append(n.refs, n.ref(e))
}

// setEntries replaces every slot with copies of es, in fresh arrays.
func (n *node) setEntries(es []Entry, dims int) {
	// es may view the old arrays; they are dropped, not written.
	n.boxes = make([]float64, 0, len(es)*2*dims)
	n.refs = make([]int64, 0, len(es))
	for _, e := range es {
		n.appendEntry(e)
	}
}

// removeAt drops slot i, keeping the order of the others, in fresh arrays.
func (n *node) removeAt(i, dims int) {
	w := 2 * dims
	boxes := make([]float64, 0, len(n.boxes)-w)
	n.boxes = append(append(boxes, n.boxes[:i*w]...), n.boxes[(i+1)*w:]...)
	refs := make([]int64, 0, len(n.refs)-1)
	n.refs = append(append(refs, n.refs[:i]...), n.refs[i+1:]...)
}

// setRect replaces slot i's rectangle with a copy of r, in a fresh array.
func (n *node) setRect(i int, r geom.Rect, dims int) {
	boxes := append(make([]float64, 0, cap(n.boxes)), n.boxes...)
	copy(boxes[i*2*dims:], r.Lo)
	copy(boxes[i*2*dims+dims:], r.Hi)
	n.boxes = boxes
}

// syncDerived rebuilds what is derived from boxes and refs: the quantised
// SoA planes and the encoded page size.
func (n *node) syncDerived(dims int) {
	n.syncPlanes(dims)
	n.encSize = int32(nodeHeaderBytes + n.count()*EntryBytes(dims))
}

// mbb returns the MBB of the node's slots as a fresh rectangle the caller
// owns (zero Rect when the node is empty).
func (n *node) mbb() geom.Rect {
	if n.count() == 0 {
		return geom.Rect{}
	}
	dims := len(n.boxes) / (2 * n.count())
	return boxRect(boxesMBB(n.boxes, dims), 0, dims)
}

// boxesMBB folds a flat coordinate array into the MBB of its records, as one
// fresh record (all zero for no records): a copy of record 0 widened in one
// pass. It is called for every node a mutation touches.
func boxesMBB(boxes []float64, dims int) []float64 {
	w := 2 * dims
	out := make([]float64, w)
	copy(out, boxes)
	for off := w; off+w <= len(boxes); off += w {
		rec := boxes[off : off+w]
		for d := 0; d < dims; d++ {
			if rec[d] < out[d] {
				out[d] = rec[d]
			}
			if rec[dims+d] > out[dims+d] {
				out[dims+d] = rec[dims+d]
			}
		}
	}
	return out
}

// Config describes an R-tree's shape-independent parameters.
type Config struct {
	// Dims is the dimensionality of all indexed rectangles (2 or 3 in the
	// paper's evaluation).
	Dims int
	// MaxEntries is the node capacity M.
	MaxEntries int
	// MinEntries is the minimum fill m (must satisfy 1 <= m <= M/2).
	MinEntries int
	// Variant selects the split / subtree-choice strategy.
	Variant Variant
	// Universe bounds the data space; it is required by the Hilbert variant
	// and harmless otherwise. When zero it defaults to a large symmetric box.
	Universe geom.Rect
	// HilbertBits is the Hilbert curve order (bits per dimension) used by
	// the Hilbert variant; defaults to 16.
	HilbertBits int
	// ReinsertFraction is the share of entries force-reinserted by the
	// R*-tree on the first overflow of a level (defaults to 0.3).
	ReinsertFraction float64
}

// DefaultConfig returns the configuration used by the evaluation harness:
// M = 50, m = 20 (40 % of M, as recommended for the R*-tree family),
// the requested variant, and a generous default universe.
func DefaultConfig(dims int, v Variant) Config {
	return Config{
		Dims:             dims,
		MaxEntries:       50,
		MinEntries:       20,
		Variant:          v,
		HilbertBits:      16,
		ReinsertFraction: 0.3,
	}
}

// Validate checks the configuration and fills in defaults for optional
// fields. It returns a usable copy.
func (c Config) withDefaults() (Config, error) {
	if c.Dims < 1 || c.Dims > geom.MaxDims {
		return c, fmt.Errorf("rtree: dims must be in [1, %d], got %d", geom.MaxDims, c.Dims)
	}
	if c.MaxEntries < 4 {
		return c, fmt.Errorf("rtree: MaxEntries must be at least 4, got %d", c.MaxEntries)
	}
	if c.MinEntries < 1 || c.MinEntries > c.MaxEntries/2 {
		return c, fmt.Errorf("rtree: MinEntries must be in [1, MaxEntries/2], got %d", c.MinEntries)
	}
	switch c.Variant {
	case Quadratic, Hilbert, RStar, RRStar:
	default:
		return c, fmt.Errorf("rtree: unknown variant %d", int(c.Variant))
	}
	if c.HilbertBits <= 0 {
		c.HilbertBits = 16
	}
	if c.Dims*c.HilbertBits > hilbert.MaxTotalBits {
		c.HilbertBits = hilbert.MaxTotalBits / c.Dims
	}
	if c.HilbertBits > hilbert.MaxBitsPerDim {
		c.HilbertBits = hilbert.MaxBitsPerDim
	}
	if c.ReinsertFraction <= 0 || c.ReinsertFraction >= 0.5 {
		c.ReinsertFraction = 0.3
	}
	if c.Universe.IsZero() {
		lo := make(geom.Point, c.Dims)
		hi := make(geom.Point, c.Dims)
		for i := 0; i < c.Dims; i++ {
			lo[i], hi[i] = -1e6, 1e6
		}
		c.Universe = geom.Rect{Lo: lo, Hi: hi}
	}
	if !c.Universe.Valid() || c.Universe.Dims() != c.Dims {
		return c, errors.New("rtree: universe rectangle is invalid or has wrong dimensionality")
	}
	return c, nil
}

// Tree is an R-tree of one of the four variants.
//
// Concurrency: the tree is single-writer/multi-reader with copy-on-write
// epoch versioning. Any number of goroutines may run Search, Count,
// NearestNeighbors, Stats, and the join algorithms at any time — including
// concurrently with a mutation — because every read traverses an immutable
// published Version (one atomic load per query; see version.go). Mutations (Insert, Delete, BulkLoad, BeginBatch/CommitBatch,
// FlushDirty) must come from one goroutine at a time; the public cbb layer
// enforces this with a writer mutex. Walk, Node, Save, Materialize, and
// Validate work on the writer's state and are likewise writer-side operations.
// SetCounter and SetBufferPool must not race with readers; attach them
// before the concurrent phase starts.
type Tree struct {
	cfg     Config
	nodes   []*node
	free    []NodeID
	root    NodeID
	size    int
	height  int // number of levels; 1 = root is a leaf
	counter *storage.Counter
	pool    *storage.BufferPool // optional, attached via SetBufferPool
	curve   *hilbert.Curve

	// Copy-on-write versioning (see version.go): cur is the last published
	// Version, loaded once per query by every read path. The fields above
	// (nodes, root, size, height, free) are the single writer's working
	// state; epoch is the batch currently being built (published epoch + 1),
	// published marks that t.nodes still aliases cur's node array and must
	// be copied before the next mutation (detach), and inBatch suppresses
	// the per-operation auto-commit between BeginBatch and CommitBatch.
	// live tracks recently published versions so FlushDirty can compute the
	// minimum pinned epoch for deferred free-page release.
	cur       atomic.Pointer[Version]
	epoch     uint64
	published bool
	inBatch   bool
	undo      *batchUndo // writer bookkeeping snapshot for RollbackBatch
	verMu     sync.Mutex
	live      []*Version
	lazyV     *Version // initial lazy version of a file-backed tree

	// Writer-side scratch, reused across mutations (the writer is single-
	// threaded, see above): ovMarks replaces the per-insertion
	// map[int]bool that tracked the once-per-level R* overflow treatment,
	// and lastIngest records how the most recent InsertItems call routed
	// its items.
	ovMarks    levelMarks
	lastIngest IngestStats

	// File-backed mode, set up by OpenPaged or AttachStore: nodes are
	// faulted into the arena on first access from src, under arenaMu, and
	// mutated nodes are tracked in src.dirty until FlushDirty writes them
	// back to the page store. src is nil for ordinary in-memory trees, whose
	// arena is accessed without locking.
	src      *pageSource
	arenaMu  sync.RWMutex
	faultErr error // first page fault failure, sticky; guarded by arenaMu

	// conservative marks a tree decoded from compressed (v2) pages: its
	// directory entry rects are supersets of the exact child MBBs (the
	// quantisation decode rounds outward), so Validate checks containment
	// instead of equality. Queries are unaffected — supersets are admissible.
	conservative bool
}

// pageSource is the storage binding of a file-backed tree: where each node
// lives in the page store, which nodes have been mutated since the last
// flush (the dirty set), and which pages await release because their node
// was dissolved.
type pageSource struct {
	store    storage.PageStore
	pages    map[NodeID]storage.PageID
	readonly bool
	hydrated bool      // hydrate has run and held: parents and LHVs are valid
	codec    PageCodec // page layout of the store; CodecV1 on every writable tree
	dirty    map[NodeID]struct{}
	freed    []freedPage
}

// freedPage is a page awaiting release, stamped with the epoch of the batch
// that dissolved its node: FlushDirty returns it to the pager's free list
// only once no pinned version is older than that epoch, so a long-lived read
// view can never observe its page slot being recycled.
type freedPage struct {
	page  storage.PageID
	epoch uint64
}

// New creates an empty tree. The tree uses its own private I/O counter; use
// SetCounter to share one across trees.
func New(cfg Config) (*Tree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg, root: InvalidNode, counter: &storage.Counter{}, epoch: 1}
	if cfg.Variant == Hilbert {
		c, err := hilbert.New(cfg.Universe, cfg.HilbertBits)
		if err != nil {
			return nil, fmt.Errorf("rtree: building hilbert curve: %w", err)
		}
		t.curve = c
	}
	t.publish()
	return t, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(cfg Config) *Tree {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the tree's effective configuration.
func (t *Tree) Config() Config { return t.cfg }

// Variant returns the tree's variant.
func (t *Tree) Variant() Variant { return t.cfg.Variant }

// Dims returns the dimensionality of indexed rectangles.
func (t *Tree) Dims() int { return t.cfg.Dims }

// Len returns the number of indexed objects at the last committed version
// (mutations inside an open batch are not counted until CommitBatch).
func (t *Tree) Len() int { return t.cur.Load().size }

// Height returns the number of levels (0 for an empty tree, 1 when the root
// is a leaf) at the last committed version.
func (t *Tree) Height() int { return t.cur.Load().height }

// Counter returns the I/O counter node accesses are charged to.
func (t *Tree) Counter() *storage.Counter { return t.counter }

// SetCounter replaces the I/O counter (for sharing across trees in joins).
func (t *Tree) SetCounter(c *storage.Counter) {
	if c != nil {
		t.counter = c
	}
}

// SetBufferPool attaches an LRU buffer pool that every node access is routed
// through, emulating a bounded main-memory buffer in front of the simulated
// disk. Pass nil to detach. A pool tracks the node ids of one tree; do not
// share one pool across trees. Attach before any concurrent reads start.
func (t *Tree) SetBufferPool(p *storage.BufferPool) { t.pool = p }

// BufferPool returns the attached buffer pool, or nil.
func (t *Tree) BufferPool() *storage.BufferPool { return t.pool }

// ResetIO zeroes the I/O counter and, when a buffer pool is attached, empties
// the pool and zeroes its hit/miss statistics as well (a cold start). Batch
// measurements must use this instead of Counter().Reset() so pool state
// cannot leak from one measured run into the next.
func (t *Tree) ResetIO() {
	t.counter.Reset()
	if t.pool != nil {
		t.pool.Reset()
	}
}

// --- copy-on-write versioning (writer side; reader side in version.go) ------

// CurrentVersion returns the last published version of the tree: one atomic
// load, no pinning. It is never nil. A long-lived read view pins the version
// it reads (Version.Pin; see clipindex.Index.PinSnap).
func (t *Tree) CurrentVersion() *Version { return t.cur.Load() }

// publish commits the writer's working state as a new immutable Version and
// makes it the current one. The writer's node array is handed to the version
// as-is; the next mutation copies it first (detach), so the published array
// never changes again.
func (t *Tree) publish() *Version {
	v := &Version{
		tree: t, epoch: t.epoch,
		root: t.root, size: t.size, height: t.height,
		nodes: t.nodes,
	}
	if t.src != nil && !t.src.hydrated {
		// A file-backed tree that has never been mutated publishes a lazy
		// version: nodes are still faulted in on demand from this epoch's
		// page map. Only the initial version of such a tree can be lazy —
		// the first mutation hydrates everything before publishing again.
		v.lazy = true
		v.pages = t.src.pages
		t.lazyV = v
	}
	t.verMu.Lock()
	t.cur.Store(v)
	live := t.live[:0]
	for _, lv := range t.live {
		if lv.pins.Load() > 0 {
			live = append(live, lv)
		}
	}
	// The filter ran in place: clear the stale pointers left in the tail, or
	// each keeps a superseded version — and every node it replaced — alive.
	clear(t.live[len(live):])
	t.live = append(live, v)
	t.verMu.Unlock()
	t.published = true
	t.epoch++
	return v
}

// minPinnedEpoch returns the smallest epoch among pinned versions, or
// MaxUint64 when nothing is pinned. FlushDirty uses it to decide which freed
// pages may be recycled.
func (t *Tree) minPinnedEpoch() uint64 {
	t.verMu.Lock()
	defer t.verMu.Unlock()
	min := ^uint64(0)
	for _, v := range t.live {
		if v.pins.Load() > 0 && v.epoch < min {
			min = v.epoch
		}
	}
	return min
}

// beginMutation prepares the writer's working state for in-place work: if
// the node array is still the one handed to the last published version, it
// is copied first, so concurrent readers of that version keep an untouched
// array. Called at the start of every mutating operation (and by
// BeginBatch); cheap when already detached.
func (t *Tree) beginMutation() {
	if t.published {
		t.nodes = append([]*node(nil), t.nodes...)
		t.published = false
	}
}

// batchUndo records what RollbackBatch needs to restore the writer
// bookkeeping an explicit batch touched. Node content needs no undo log —
// the published version's node array is immutable, so discarding the
// writer's private array is the rollback. The dirty-set and page-map undo
// is built incrementally, first touch wins (recording each id's pre-batch
// state the first time the batch modifies it), so BeginBatch stays O(free
// list) instead of copying maps proportional to the whole tree.
type batchUndo struct {
	free []NodeID
	// dirtyPrev maps each node id whose dirty-set membership the batch
	// changed to its pre-batch membership.
	dirtyPrev map[NodeID]bool
	// pagesRemoved holds the page-map entries freeNode deleted during the
	// batch (pages are never added mid-batch; FlushDirty refuses to run
	// inside one).
	pagesRemoved map[NodeID]storage.PageID
	freedLen     int
}

// noteDirty records the pre-batch dirty membership of id, first touch wins.
// Safe on a nil receiver (no batch open).
func (u *batchUndo) noteDirty(id NodeID, present bool) {
	if u == nil {
		return
	}
	if u.dirtyPrev == nil {
		u.dirtyPrev = make(map[NodeID]bool)
	}
	if _, seen := u.dirtyPrev[id]; !seen {
		u.dirtyPrev[id] = present
	}
}

// notePageRemoved records a page-map entry deleted by freeNode, first
// removal wins. Safe on a nil receiver.
func (u *batchUndo) notePageRemoved(id NodeID, pid storage.PageID) {
	if u == nil {
		return
	}
	if u.pagesRemoved == nil {
		u.pagesRemoved = make(map[NodeID]storage.PageID)
	}
	if _, seen := u.pagesRemoved[id]; !seen {
		u.pagesRemoved[id] = pid
	}
}

// BeginBatch starts an explicit writer batch: mutations accumulate in the
// writer's private overlay and become visible to readers only at
// CommitBatch, as one atomic version switch. Mutating operations outside a
// batch auto-commit individually. Batches do not nest, and the tree's
// single-writer rule applies: BeginBatch/CommitBatch and all mutations must
// come from one goroutine at a time (the public cbb layer enforces this with
// a writer mutex).
func (t *Tree) BeginBatch() error {
	if err := t.ensureMutable(); err != nil {
		return err
	}
	if t.inBatch {
		return errors.New("rtree: batch already in progress")
	}
	t.beginMutation()
	u := &batchUndo{free: append([]NodeID(nil), t.free...)}
	if t.src != nil {
		u.freedLen = len(t.src.freed)
	}
	t.undo = u
	t.inBatch = true
	return nil
}

// CommitBatch publishes every mutation since BeginBatch as one new version
// and returns it. Readers switch from the previous version to the new one
// atomically; no reader ever observes a partially applied batch.
func (t *Tree) CommitBatch() *Version {
	t.inBatch = false
	t.undo = nil
	return t.publish()
}

// RollbackBatch discards every mutation since BeginBatch: the writer's
// private node array is dropped in favour of the published version's
// (copy-on-write means the published nodes were never touched), the batch's
// bookkeeping (free list, page map, dirty set, freed pages) is restored
// from the begin-time snapshot, and the writer-private node metadata the
// batch may have refreshed in place on shared objects — parent pointers and
// Hilbert LHVs — is recomputed. Readers are unaffected: nothing was
// published.
func (t *Tree) RollbackBatch() {
	if !t.inBatch {
		return
	}
	u := t.undo
	t.inBatch = false
	t.undo = nil
	v := t.cur.Load()
	t.nodes = v.nodes
	t.published = true // next mutation detaches from the published array again
	t.root, t.size, t.height = v.root, v.size, v.height
	t.free = u.free
	if t.src != nil {
		for id, was := range u.dirtyPrev {
			if was {
				t.src.dirty[id] = struct{}{}
			} else {
				delete(t.src.dirty, id)
			}
		}
		for id, pid := range u.pagesRemoved {
			t.src.pages[id] = pid
		}
		t.src.freed = t.src.freed[:u.freedLen]
	}
	t.arenaMu.Lock()
	_ = t.fixParentsLocked() // every child of a published version is resident
	t.arenaMu.Unlock()
	t.recomputeHilbertLHVs(t.height)
}

// fixParentsLocked recomputes every node's parent pointer from the
// directory entries (the inverse information is not kept anywhere else) —
// shared by hydrate and RollbackBatch — and reports the first directory slot
// whose child is not in the arena. arenaMu must be held; the arena is
// accessed directly, so every node must already be resident.
func (t *Tree) fixParentsLocked() (err error) {
	if t.root != InvalidNode && int(t.root) < len(t.nodes) && t.nodes[t.root] != nil {
		t.nodes[t.root].parent = InvalidNode
	}
	for _, n := range t.nodes {
		if n == nil || n.leaf {
			continue
		}
		for i := range n.refs {
			c := n.child(i)
			if c >= 0 && int(c) < len(t.nodes) && t.nodes[c] != nil {
				t.nodes[c].parent = n.id
			} else if err == nil {
				err = fmt.Errorf("rtree: node %d references missing child %d", n.id, c)
			}
		}
	}
	return err
}

// InBatch reports whether an explicit writer batch is open.
func (t *Tree) InBatch() bool { return t.inBatch }

// autoCommit publishes after a successful non-batched mutation.
func (t *Tree) autoCommit(err error) {
	if err == nil && !t.inBatch {
		t.publish()
	}
}

// cloneForWrite deep-copies a shared node object so the writer can mutate it
// without disturbing published versions: boxes, refs, and the planes get
// fresh backing arrays (qmbb is never written in place, so it is shared);
// parent, leaf, level, and the Hilbert LHV carry over.
func (t *Tree) cloneForWrite(n *node) *node {
	c := &node{
		id: n.id, parent: n.parent, leaf: n.leaf, level: n.level,
		born:       t.epoch,
		hilbertLHV: n.hilbertLHV,
	}
	c.boxes = append(make([]float64, 0, cap(n.boxes)), n.boxes...)
	c.refs = append(make([]int64, 0, cap(n.refs)), n.refs...)
	c.qmbb = n.qmbb
	c.qplanes = append(make([]uint64, 0, cap(n.qplanes)), n.qplanes...)
	return c
}

// mutable returns a node object the writer may mutate in place: n itself
// when it was created or already cloned in the current batch, otherwise a
// clone installed in the writer's arena in its stead. Every mutation of a
// node's slots must go through here before writing; reads may keep using the
// shared object.
func (t *Tree) mutable(n *node) *node {
	if n.born == t.epoch {
		return n
	}
	// The arena may already hold a clone from earlier in this batch even if
	// the caller still has a stale shared pointer.
	if c := t.nodes[n.id]; c.born == t.epoch {
		return c
	}
	c := t.cloneForWrite(n)
	t.nodes[n.id] = c
	return c
}

// ChargeNodeRead records one access to the node info describes: a leaf or
// directory read on c (the tree's own counter when c is nil) plus a touch of
// the attached buffer pool, if any. Every read path funnels its node accesses
// through here or through chargeReadNode, its form for callers that hold the
// node itself, so counter and pool accounting cannot diverge and a page is
// charged one size whoever reads it.
func (t *Tree) ChargeNodeRead(info *NodeInfo, c *storage.Counter) {
	t.chargeRead(info.ID, info.Leaf, info.Bytes+info.PlaneBytes, c)
}

// chargeReadNode is ChargeNodeRead for the search and kNN hot paths, which
// hold the node and build no NodeInfo.
func (t *Tree) chargeReadNode(n *node, c *storage.Counter) {
	t.chargeRead(n.id, n.leaf, int(n.encSize)+n.planeBytes(), c)
}

// chargeRead counts the access and touches the pool with the bytes the node
// keeps resident: its encoded page size plus the quantised filter layer
// (planes + quantisation MBB). Byte-budget pools charge residency by it;
// page-count pools ignore it.
func (t *Tree) chargeRead(id NodeID, leaf bool, bytes int, c *storage.Counter) {
	if c == nil {
		c = t.counter
	}
	if leaf {
		c.LeafRead(1)
	} else {
		c.DirRead(1)
	}
	if t.pool != nil {
		// PageID zero is invalid, node ids start at zero: offset by one.
		t.pool.TouchSized(storage.PageID(uint64(id)+1), bytes)
	}
}

// RootID returns the id of the root node, or InvalidNode for an empty tree.
func (t *Tree) RootID() NodeID { return t.root }

// ReadOnly reports whether the tree rejects mutations with ErrReadOnly: it
// was opened read-only, or its page store cannot be written.
func (t *Tree) ReadOnly() bool { return t.src != nil && t.src.readonly }

// FileBacked reports whether the tree is bound to a page store (opened with
// OpenPaged or attached with AttachStore).
func (t *Tree) FileBacked() bool { return t.src != nil }

// Dirty reports whether a file-backed tree has node mutations that
// FlushDirty has not yet written back to the page store. In-memory trees
// are never dirty.
func (t *Tree) Dirty() bool {
	if t.src == nil {
		return false
	}
	return len(t.src.dirty) > 0 || len(t.src.freed) > 0
}

// Err returns the first page-fault failure of a file-backed tree (a page
// that could not be read or decoded on demand), or nil. Queries treat a
// node that failed to fault in as empty rather than panicking; callers that
// need certainty should check Err after a batch, or call Materialize up
// front.
func (t *Tree) Err() error {
	if t.src == nil {
		return nil
	}
	t.arenaMu.RLock()
	defer t.arenaMu.RUnlock()
	return t.faultErr
}

// Bounds returns the MBB of all indexed objects (zero Rect when empty) at
// the last committed version.
func (t *Tree) Bounds() geom.Rect {
	return t.cur.Load().Bounds()
}

// --- node arena management -------------------------------------------------

func (t *Tree) newNode(leaf bool, level int) *node {
	var id NodeID
	var nd *node
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
		// The arena slot may still be referenced by a published version
		// (the node object of the freed generation), so a fresh object is
		// always allocated; node ids are reused, node objects never are.
		nd = &node{id: id, parent: InvalidNode, leaf: leaf, level: level, born: t.epoch}
		t.nodes[id] = nd
	} else {
		id = NodeID(len(t.nodes))
		nd = &node{id: id, parent: InvalidNode, leaf: leaf, level: level, born: t.epoch}
		t.nodes = append(t.nodes, nd)
	}
	t.touch(nd)
	return nd
}

func (t *Tree) freeNode(id NodeID) {
	// Published versions may still traverse the freed node's object, so it
	// is left untouched; the writer's arena slot gets an empty placeholder
	// of the same shape (matching the pre-versioning behaviour of a freed
	// slot: present, no entries).
	old := t.nodes[id]
	t.nodes[id] = &node{id: id, parent: old.parent, leaf: old.leaf, level: old.level, born: t.epoch}
	t.free = append(t.free, id)
	if t.src != nil {
		// The node's page (if it has one) is released on a later flush, once
		// no pinned version predates this batch; a later newNode reusing
		// this arena id allocates a fresh page with the right kind.
		if _, ok := t.src.dirty[id]; ok {
			t.undo.noteDirty(id, true)
			delete(t.src.dirty, id)
		}
		if pid, ok := t.src.pages[id]; ok {
			t.undo.notePageRemoved(id, pid)
			t.src.freed = append(t.src.freed, freedPage{page: pid, epoch: t.epoch})
			delete(t.src.pages, id)
		}
	}
}

// touch records that a node's persistent state (slots, leaf flag, level)
// changed: the next FlushDirty writes it back (file-backed trees), and the
// filter layer derived from boxes is refreshed (all trees). Every slot
// mutation site calls it — the single node-access layer shared by both
// modes. The node must be writer-owned (created or cloned in the current
// batch); touching a shared node object would mutate a published version
// under its readers.
func (t *Tree) touch(n *node) {
	if n.born != t.epoch {
		panic(fmt.Sprintf("rtree: touch of node %d shared with a published version (born %d, batch %d)", n.id, n.born, t.epoch))
	}
	if t.src != nil {
		if _, ok := t.src.dirty[n.id]; !ok {
			t.undo.noteDirty(n.id, false)
			t.src.dirty[n.id] = struct{}{}
		}
	}
	n.syncDerived(t.cfg.Dims)
}

// faultFailure carries a node-access failure out of the deep mutation
// recursion; Insert, Delete, and BulkLoad recover it into an error.
type faultFailure struct{ err error }

// mustNode is the node accessor of the mutation paths: unlike node (which
// lets queries degrade gracefully), a missing or unreadable node aborts the
// mutation via a recoverable panic. After ensureMutable has hydrated a
// file-backed tree this can only trip on genuine corruption.
func (t *Tree) mustNode(id NodeID) *node {
	n := t.node(id)
	if n == nil {
		err := t.Err()
		if err == nil {
			err = fmt.Errorf("rtree: node %d does not exist", id)
		}
		panic(faultFailure{err})
	}
	return n
}

// recoverFault converts a faultFailure panic into *errp; other panics
// propagate.
func recoverFault(errp *error) {
	if r := recover(); r != nil {
		ff, ok := r.(faultFailure)
		if !ok {
			panic(r)
		}
		*errp = ff.err
	}
}

// ensureMutable gates every mutation. In-memory trees are always mutable, a
// read-only file-backed tree fails with ErrReadOnly, and a writable one must
// be hydrated (Materialize; the first mutation pays for it), after which the
// mutation algorithms run exactly as in memory and mark what they change in
// the dirty set.
func (t *Tree) ensureMutable() error {
	if t.src != nil && t.src.readonly {
		return ErrReadOnly
	}
	if err := t.Materialize(); err != nil {
		return fmt.Errorf("rtree: hydrating file-backed tree for mutation: %w", err)
	}
	return nil
}

// recomputeHilbertLHVs rebuilds every node's cached largest-Hilbert-value
// bottom-up (levels ascending) for a tree of the given height.
func (t *Tree) recomputeHilbertLHVs(height int) {
	if t.curve == nil {
		return
	}
	for level := 0; level < height; level++ {
		for _, n := range t.nodes {
			if n != nil && n.level == level {
				t.updateHilbertLHV(n)
			}
		}
	}
}

// node is the writer-side node accessor: the arena lookup used by the
// mutation algorithms, Walk, Save, and friends. For an ordinary in-memory
// tree (and for a file-backed tree once hydrated) this is a plain arena
// lookup; before hydration it falls through to the lazy version's fault
// path, so the arena fills in exactly as reads always did. It returns nil
// when the id is out of range or its page cannot be read (the failure is
// recorded and exposed via Err).
func (t *Tree) node(id NodeID) *node {
	if t.src == nil {
		return t.nodes[id]
	}
	if id < 0 || int(id) >= len(t.nodes) {
		t.parkFault(fmt.Errorf("rtree: node id %d out of range", id))
		return nil
	}
	if t.src.hydrated {
		return t.nodes[id]
	}
	n, _ := t.lazyNode(t.lazyV, id) // the failure is parked in Err
	return n
}

// lazyNode serves a node access on a lazy (file-backed, not yet hydrated)
// version: the version's array is checked under the arena lock, and a miss
// faults the page in. Before the tree's first mutation the lazy version's
// array and the writer arena are the same array, so faults triggered by
// either side are shared.
func (t *Tree) lazyNode(v *Version, id NodeID) (*node, error) {
	if id < 0 || int(id) >= len(v.nodes) {
		return nil, t.parkFault(fmt.Errorf("rtree: node id %d out of range", id))
	}
	t.arenaMu.RLock()
	n := v.nodes[id]
	t.arenaMu.RUnlock()
	if n != nil {
		return n, nil
	}
	return t.fault(v, id)
}

// fault loads one node page from the page store into a lazy version's node
// array: the one place a page becomes a node of a tree, and the one place a
// fault error is born (no page for the id, unreadable page, decode error, a
// page that claims another node's id). The disk read and decode run outside
// the lock so concurrent cold readers fault different pages in parallel; the
// outcome — success OR failure — is then reconciled under the write lock
// against what may have been installed meanwhile, and the already-installed
// node always wins.
// That rule is what makes unpinned in-flight reads safe against a
// concurrent first mutation + flush: the writer's hydration populates the
// whole array before any page can be freed, rewritten, or recycled on
// disk, so a stale fault that loses the race and reads a freed, reused, or
// mid-commit page discards its result and returns the hydrated epoch-0
// node instead of recording a spurious fault — or, worse, serving a newer
// node generation to an older version. The page lookup uses the version's
// own page map, which is never mutated after publication.
func (t *Tree) fault(v *Version, id NodeID) (*node, error) {
	var n *node
	var ferr error
	if pid, ok := v.pages[id]; !ok {
		ferr = fmt.Errorf("rtree: node %d has no page in the snapshot", id)
	} else if buf, _, err := t.src.store.Read(pid); err != nil {
		ferr = fmt.Errorf("rtree: reading page %d for node %d: %w", pid, id, err)
	} else if n, err = decodeNodeCodec(buf, t.cfg.Dims, t.src.codec); err != nil {
		ferr = fmt.Errorf("rtree: decoding page %d for node %d: %w", pid, id, err)
	} else if n.id != id {
		ferr = fmt.Errorf("rtree: page %d claims node id %d, expected %d", pid, n.id, id)
	}
	t.arenaMu.Lock()
	defer t.arenaMu.Unlock()
	if cached := v.nodes[id]; cached != nil {
		return cached, nil
	}
	if ferr != nil {
		if t.faultErr == nil {
			t.faultErr = ferr
		}
		return nil, ferr
	}
	v.nodes[id] = n
	return n, nil
}

// parkFault records err as the tree's sticky fault failure if it is the
// first, and returns it.
func (t *Tree) parkFault(err error) error {
	t.arenaMu.Lock()
	if t.faultErr == nil {
		t.faultErr = err
	}
	t.arenaMu.Unlock()
	return err
}

// NodeInfo is a read-only description of one node, exposed for the clip
// layer, the joins, statistics, and tests. Its slots are read through Len,
// Rect, Child, and Object, which view the same flat arrays the search kernel
// scans: no per-node allocation, and the returned rectangles follow the view
// contract on Entry (read-only, valid for the life of the process). A
// NodeInfo is a snapshot: slots appended to a writer-side node afterwards
// are not seen.
type NodeInfo struct {
	ID     NodeID
	Parent NodeID
	Leaf   bool
	Level  int
	// MBB is the exact MBB of the slots (zero for an empty node): a view of
	// the rectangle the planes are quantised against, read-only like a slot's.
	MBB geom.Rect
	// Bytes is the node's encoded page size (see node.encSize).
	Bytes int
	// PlaneBytes is the resident size of the node's quantised SoA filter
	// layer (see quant.go); it rides on top of Bytes in pool accounting.
	PlaneBytes int

	boxes   []float64
	refs    []int64
	qmbb    []float64
	qplanes []uint64
	dims    int
}

// Len returns the number of slots (children of a directory node, objects of
// a leaf). The accessors take a pointer receiver so a loop over the slots
// does not copy the struct once per call.
func (ni *NodeInfo) Len() int { return len(ni.refs) }

// Rect returns slot i's rectangle: the child's MBB on a directory node, the
// object's rectangle on a leaf.
func (ni *NodeInfo) Rect(i int) geom.Rect { return boxRect(ni.boxes, i, ni.dims) }

// Child returns slot i's child node id; meaningful on directory nodes only.
func (ni *NodeInfo) Child(i int) NodeID { return NodeID(ni.refs[i]) }

// Object returns slot i's object id; meaningful on leaves only.
func (ni *NodeInfo) Object(i int) ObjectID { return ObjectID(ni.refs[i]) }

// Restrict appends to dst, ascending, the slots whose rectangles may intersect
// q — every slot that does, plus the near misses the grid admits: the range
// search's scan kernel (quantiseQuery, quantScan) over a published node's
// planes, through the caller's scratch mask (replaced when too small). A node
// without a filter layer yields none, as range search skips it.
func (ni *NodeInfo) Restrict(q geom.Rect, mask *[]uint64, dst []int) []int {
	count, dims := len(ni.refs), ni.dims
	if q.Dims() != dims || len(ni.qmbb) != 2*dims || len(ni.qplanes) != 2*dims*planeWords(count) {
		return dst
	}
	var qg [2 * geom.MaxDims]uint16
	quantiseQuery(ni.qmbb, dims, q.Lo, q.Hi, &qg)
	*mask = slices.Grow((*mask)[:0], (count+63)>>6)[:(count+63)>>6]
	quantScan(ni.qplanes, count, dims, &qg, *mask)
	for w, m := range *mask {
		for ; m != 0; m &= m - 1 {
			dst = append(dst, w<<6+bits.TrailingZeros64(m))
		}
	}
	return dst
}

// Intersecting filters ks, slots of o, down to those whose rectangle
// intersects slot i's (Rect.Intersects on the two flat stores), in order, into
// dst's storage. Every candidate is written and the length advanced by its
// verdict: no branch for neighbouring boxes' verdicts to mispredict.
func (ni *NodeInfo) Intersecting(i int, o *NodeInfo, ks, dst []int) []int {
	dims, w := ni.dims, 2*ni.dims
	a := ni.boxes[i*w:][:w]
	dst = slices.Grow(dst[:0], len(ks))[:len(ks)]
	n := 0
	for _, k := range ks {
		b, miss := o.boxes[k*w:][:w], 0
		for d := 0; d < dims; d++ {
			miss |= b2i(a[dims+d] < b[d]) | b2i(b[dims+d] < a[d])
		}
		dst[n] = k
		n += miss ^ 1
	}
	return dst[:n]
}

// b2i is 1 for true, compiled to a flag move rather than a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// info describes the node for Node and Walk; parent is passed because
// versions must not read the writer-private pointer.
func (n *node) info(parent NodeID, dims int) NodeInfo {
	ni := NodeInfo{
		ID: n.id, Parent: parent, Leaf: n.leaf, Level: n.level,
		Bytes: int(n.encSize), PlaneBytes: n.planeBytes(),
		boxes: n.boxes, refs: n.refs, qmbb: n.qmbb, qplanes: n.qplanes, dims: dims,
	}
	if n.count() > 0 && len(n.qmbb) == 2*dims {
		ni.MBB = boxRect(n.qmbb, 0, dims)
	}
	return ni
}

// Node returns a snapshot of the node with the given id. On a file-backed
// tree the node is faulted in on demand, and Parent is InvalidNode until
// Materialize has run (parents are not stored in the Figure 4a page layout).
func (t *Tree) Node(id NodeID) (NodeInfo, error) {
	if id >= 0 && int(id) < len(t.nodes) {
		if n := t.node(id); n != nil {
			return n.info(n.parent, t.cfg.Dims), nil
		}
	}
	return NodeInfo{}, fmt.Errorf("rtree: node %d does not exist", id)
}

// Walk visits every live node of the tree top-down, calling fn with a
// snapshot of each. It does not charge I/O; it is intended for construction
// of clip tables, statistics, and validation.
func (t *Tree) Walk(fn func(NodeInfo)) {
	if t.root == InvalidNode {
		return
	}
	stack := []NodeID{t.root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := t.node(id)
		if n == nil {
			continue
		}
		fn(n.info(n.parent, t.cfg.Dims))
		if !n.leaf {
			for i := range n.refs {
				stack = append(stack, n.child(i))
			}
		}
	}
}

// NodeCount returns the number of live nodes (directory + leaf).
func (t *Tree) NodeCount() (dir, leaf int) {
	t.Walk(func(info NodeInfo) {
		if info.Leaf {
			leaf++
		} else {
			dir++
		}
	})
	return dir, leaf
}

// --- search ------------------------------------------------------------------

// Search finds every object whose rectangle intersects q and passes it to
// visit; traversal stops early if visit returns false. Node accesses are
// charged to the tree's counter (directory and leaf reads separately).
//
// An invalid query, or one whose dimensionality differs from the tree's,
// matches nothing. (Previously a query with extra dimensions had them
// silently ignored on the unclipped path and panicked on the clipped path;
// both now uniformly return no results.)
func (t *Tree) Search(q geom.Rect, visit func(ObjectID, geom.Rect) bool) {
	t.cur.Load().searchIter(q, nil, nil, visit)
}

// SearchCounted is Search with the node accesses charged to an explicit
// counter instead of the tree's own (the tree's counter when c is nil).
// Parallel executors give every worker goroutine a private counter so that
// per-worker I/O can be reported exactly and merged deterministically.
func (t *Tree) SearchCounted(q geom.Rect, c *storage.Counter, visit func(ObjectID, geom.Rect) bool) {
	t.cur.Load().searchIter(q, nil, c, visit)
}

// Count returns the number of objects intersecting q (convenience wrapper
// over Search).
func (t *Tree) Count(q geom.Rect) int {
	n := 0
	t.Search(q, func(ObjectID, geom.Rect) bool { n++; return true })
	return n
}

// All returns every object in the tree (id and rectangle), in no particular
// order, without charging I/O. The rectangles are views (see Entry).
func (t *Tree) All() []Entry {
	out := make([]Entry, 0, t.size)
	t.Walk(func(info NodeInfo) {
		if info.Leaf {
			for i := 0; i < info.Len(); i++ {
				out = append(out, Entry{Rect: info.Rect(i), Child: InvalidNode, Object: info.Object(i)})
			}
		}
	})
	return out
}

// AllItems returns every object as bulk-load items, in no particular order,
// without charging I/O. It is the export hook for shard rebuilds: the
// sharded engine enumerates a shard with AllItems, partitions the items by
// Hilbert key, and BulkLoads each half into a fresh tree.
func (t *Tree) AllItems() []Item {
	entries := t.All()
	out := make([]Item, len(entries))
	for i, e := range entries {
		out[i] = Item{Object: e.Object, Rect: e.Rect}
	}
	return out
}
