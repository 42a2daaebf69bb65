// Package rtree implements a disk-style R-tree framework and the four
// variants evaluated in the paper: the quadratic R-tree of Guttman
// (QR-tree), the Hilbert R-tree (HR-tree, bulk loaded along the Hilbert
// curve), the R*-tree of Beckmann et al., and the revised R*-tree
// (RR*-tree). All variants share the same node layout and query algorithm
// and differ only in how they distribute entries into nodes, exactly as the
// paper assumes when it plugs clipped bounding boxes into each of them.
//
// Every read — range search, kNN, join traversal — tallies its leaf and
// directory accesses, the paper's I/O metric, in a storage.Snapshot it owns
// and charges the tally to the tree's storage.Counter once, when it ends.
// Nodes live in a versioned node directory (dir.go) whose slot per node id
// also holds the node's clip record (Figure 4b), its page on a file-backed
// tree, and the parent and Hilbert metadata the writer keeps; a commit copies
// only the directory chunks it wrote. The nodes are either built in memory or
// bound to a storage.PageStore holding one page per node (Figure 4a;
// encode.go, encode_v2.go), and there is one door each way. Off pages:
// Tree.fault is the only code that turns a page into a node, on first access
// to it, and hydrate is the only code that brings every page in. A tree
// opened with OpenPaged keeps its store and the header's counts, its slots
// the pages the snapshot's index names; it reads through fault, and hydrates
// on Materialize, Validate or its first mutation, when hydrate's recount is
// held to the header; a tree loaded with Load is the same open hydrated at
// once, adopting the recount and keeping no store — an ordinary in-memory
// tree. Onto pages: Save writes a whole tree, FlushDirty the nodes born
// since the last flush, both through a PageCodec argument.
//
// A node keeps its rectangles once: one exact store (flat float64
// coordinates plus a parallel reference array, the in-memory form of the
// paper's Figure 4a page) and one filter layer derived from it (SoA planes
// of 16-bit grid coordinates, 8-bit on leaves, quant.go). Entry and NodeInfo are views of that store; the
// rectangles they — and every query callback — hand out alias immutable node
// storage, are read-only, and stay valid for the life of the process (see
// Entry).
package rtree

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
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

// ParseVariant returns the variant a name denotes: the paper's name as String
// writes it, or an alias ("qr", "quadratic", "hr", "hilbert", "r*", "rstar",
// "rr*", "rrstar"), in any case and with surrounding spaces ignored.
func ParseVariant(name string) (Variant, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "qr-tree", "qr", "quadratic":
		return Quadratic, nil
	case "hr-tree", "hr", "hilbert":
		return Hilbert, nil
	case "r*-tree", "r*", "rstar":
		return RStar, nil
	case "rr*-tree", "rr*", "rrstar":
		return RRStar, nil
	}
	return 0, fmt.Errorf("unknown variant %q (want qr, hr, r*, or rr*)", name)
}

// AllVariants lists the four variants in the order the paper's figures use.
func AllVariants() []Variant { return []Variant{Quadratic, Hilbert, RStar, RRStar} }

// ObjectID identifies a data object stored in a leaf entry.
type ObjectID int64

// NodeID identifies a node in the node directory. InvalidNode (-1) is the null
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
	id    NodeID
	level int32 // 0 = leaf level
	leaf  bool
	// encSize is the node's encoded page size in bytes: the exact stored
	// size for nodes decoded from a snapshot, or the v1 layout size for
	// in-memory nodes (refreshed by syncDerived on every mutation).
	// Buffer pools charge residency by it, so compressed and raw pages share
	// one budget honestly.
	encSize int32
	// born is the writer generation that created this node object
	// (creation or clone; 0 for a decoded one). A node born in an earlier
	// generation may belong to a published version and is immutable: the
	// writer must clone it (Tree.mutable) before changing boxes, refs, leaf,
	// or level. What the writer knows about a node beyond its page — its
	// parent, its Hilbert LHV — lives in the node's directory slot.
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
	// len (into room a write reserved, or a copy one slot longer), and
	// removeAt, setEntries and Tree.setRect install fresh arrays. Mutate
	// slots only through those methods, each followed by Tree.touch.
	//
	// Exact-size rule: boxes, refs and qplanes of a node a published version
	// holds have len == cap. A write reserves, when it copies a node, exactly
	// the slots it is about to append (Tree.mutable), so a changed node is
	// copied once and append's growth policy never leaves slack behind in a
	// version; a node that takes more appends in the same batch gets room up
	// to a split and is trimmed when the batch publishes.
	boxes []float64
	refs  []int64
	// qmbb and qplanes are the quantised SoA filter layer (see quant.go):
	// qmbb holds the node MBB the planes are quantised against (dims Lo
	// extents then dims Hi extents, like one boxes record), and qplanes holds
	// the grid coordinates of the slot bounds in dimension-major SoA order
	// (lo plane then hi plane per dimension): 16-bit, four lanes per uint64
	// word, on a directory node, and 8-bit, eight lanes per word, on a leaf.
	// The scan kernels test slots against these planes first
	// and touch boxes only for survivors. Derived from boxes by syncDerived
	// on every mutation; the v2 fault-in path installs the page's stored grid
	// coordinates instead (bit-identical pruning across stores — see
	// decodeNodeV2).
	qmbb    []float64
	qplanes []uint64
	// clips is a directory node's compact copy of its children's clip points
	// on its own grid (see quant.go), nil when it has none. Unlike the
	// planes it depends on the children's records: a publish rebuilds it
	// for the directory nodes the batch wrote and for the parents of nodes
	// given a new record (Tree.syncClips), and a fault builds it from the
	// lazy version's records, so a published copy always matches them.
	clips *clipGrid
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

// appendEntry adds e as the last slot, copying its coordinates: into room
// reserved for it, or else into arrays one slot longer.
func (n *node) appendEntry(e Entry) {
	if len(n.refs) == cap(n.refs) {
		n.resize(1, len(e.Rect.Lo))
	}
	n.boxes = append(append(n.boxes, e.Rect.Lo...), e.Rect.Hi...)
	n.refs = append(n.refs, n.ref(e))
}

// resize moves boxes and refs into fresh arrays holding the slots plus room
// for exactly reserve more.
func (n *node) resize(reserve, dims int) {
	n.boxes = append(make([]float64, 0, len(n.boxes)+reserve*2*dims), n.boxes...)
	n.refs = append(make([]int64, 0, len(n.refs)+reserve), n.refs...)
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

// syncDerived rebuilds what is derived from boxes and refs: the quantised
// SoA planes and the encoded page size. Slots, when given, are the only ones
// changed or appended since the planes were last synced, and syncSlots gets
// the first try at the planes.
func (n *node) syncDerived(dims int, slots ...int) {
	if len(slots) == 0 || !n.syncSlots(dims, slots) {
		n.syncPlanes(dims)
	}
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
// fresh record (all zero for no records). It is called for every node a
// mutation touches.
func boxesMBB(boxes []float64, dims int) []float64 {
	out := make([]float64, 2*dims)
	foldMBB(out, boxes, dims)
	return out
}

// foldMBB writes the MBB of boxes' records into out, one record long: a copy
// of record 0 widened in one pass (out untouched for no records).
func foldMBB(out, boxes []float64, dims int) {
	w := 2 * dims
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
}

// DefaultConfig returns the configuration used by the evaluation harness:
// M = 50, m = 20 (40 % of M, as recommended for the R*-tree family),
// the requested variant, and a generous default universe.
func DefaultConfig(dims int, v Variant) Config {
	return Config{
		Dims:        dims,
		MaxEntries:  50,
		MinEntries:  20,
		Variant:     v,
		HilbertBits: 16,
	}
}

// withDefaults checks the configuration and fills in defaults for optional
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
// published Version (one atomic load per query; see version.go). Mutations
// (Insert, Delete, BulkLoad, BeginBatch/CommitBatch, FlushDirty,
// SetRecord) must come from one goroutine at a time; the public cbb layer
// enforces this with a writer mutex. Walk, Node, Save, Materialize, and
// Validate work on the writer's state and are likewise writer-side
// operations. SetBufferPool and ResetIO may run beside readers; SetCounter
// may not.
type Tree struct {
	cfg     Config
	dir     directory
	free    []NodeID
	root    NodeID
	size    int
	height  int // number of levels; 1 = root is a leaf
	counter *storage.Counter
	pool    atomic.Pointer[storage.BufferPool] // optional, attached via SetBufferPool
	curve   *hilbert.Curve

	// Copy-on-write versioning (version.go, dir.go): cur is the last
	// published Version; the fields above are the writer's working state.
	// epoch is the batch being built (published epoch + 1); gen counts
	// publishes, and nodes and chunks stamped with it are the writer's to
	// write in place; dirShared marks dir's top array as cur's. inBatch
	// suppresses the auto-commit.
	cur       atomic.Pointer[Version]
	epoch     uint64
	gen       uint64
	dirShared bool
	inBatch   bool
	undo      *batchUndo // writer bookkeeping snapshot for RollbackBatch
	lazyV     *Version   // the one lazy version of a file-backed tree, until hydrated

	// Writer-side scratch: the levels one insertion gave the R* overflow
	// treatment, the nodes of the open batch that mutable gave room
	// beyond one write's reservation (publish trims them), and the
	// directory nodes touched and the nodes given a record since the last
	// publish (whose clip copies, or whose parents', publish rebuilds).
	ovMarks    levelMarks
	slack      []*node
	clipsDirty []NodeID

	// File-backed mode, set up by OpenPaged: nodes are faulted into the lazy
	// version's directory on first access from src, and nodes born since
	// src.flushed are what FlushDirty writes back to the page store. src is
	// nil for ordinary in-memory trees.
	src      *pageSource
	faultErr atomic.Pointer[error] // first page fault failure, for Err

	// conservative marks a tree decoded from compressed (v2) pages: its
	// directory entry rects are supersets of the exact child MBBs (the
	// quantisation decode rounds outward), so Validate checks containment
	// instead of equality. Queries are unaffected — supersets are admissible.
	conservative bool
}

// pageSource is the storage binding of a file-backed tree: the page store,
// the writer generation of the last flush (a live node born in it or later
// is what the next flush writes), and the pages that await release because
// their node was dissolved. Which page holds a node is its directory slot's.
type pageSource struct {
	store    storage.PageStore
	readonly bool
	hydrated bool      // hydrate has run and held: the writer's directory is whole
	codec    PageCodec // page layout of the store; CodecV1 on every writable tree
	flushed  uint64
	freed    []storage.PageID
}

// New creates an empty tree. The tree uses its own private I/O counter; use
// SetCounter to share one across trees.
func New(cfg Config) (*Tree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg, root: InvalidNode, counter: &storage.Counter{}, epoch: 1, gen: 1}
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

// Dims returns the dimensionality of indexed rectangles.
func (t *Tree) Dims() int { return t.cfg.Dims }

// Len returns the number of indexed objects at the last committed version
// (mutations inside an open batch are not counted until CommitBatch).
func (t *Tree) Len() int { return t.cur.Load().size }

// Height returns the number of levels (0 for an empty tree, 1 when the root
// is a leaf) at the last committed version.
func (t *Tree) Height() int { return t.cur.Load().height }

// Counter returns the I/O counter every read and write of the tree charges
// its tally to.
func (t *Tree) Counter() *storage.Counter { return t.counter }

// chargeWrites charges a mutation's node writes to the counter, once, as the
// mutation ends.
func (t *Tree) chargeWrites(n int) { t.counter.Add(storage.Snapshot{Writes: int64(n)}) }

// SetCounter replaces the I/O counter (a sharded engine shares one across its
// shard trees).
func (t *Tree) SetCounter(c *storage.Counter) {
	if c != nil {
		t.counter = c
	}
}

// SetBufferPool attaches an LRU buffer pool that every node access is routed
// through, emulating a bounded main-memory buffer in front of the simulated
// disk. Pass nil to detach. A pool is indexed by the node ids of one tree;
// do not share one pool across trees. Every read loads the pool once, so
// attaching or detaching may happen beside readers; a read in flight
// finishes on the pool it started with.
func (t *Tree) SetBufferPool(p *storage.BufferPool) { t.pool.Store(p) }

// BufferPool returns the attached buffer pool, or nil.
func (t *Tree) BufferPool() *storage.BufferPool { return t.pool.Load() }

// ResetIO zeroes the I/O counter and, when a buffer pool is attached, empties
// the pool and zeroes its hit/miss statistics as well (a cold start). Batch
// measurements must use this instead of Counter().Reset() so pool state
// cannot leak from one measured run into the next.
func (t *Tree) ResetIO() {
	t.counter.Reset()
	if p := t.pool.Load(); p != nil {
		p.Reset()
	}
}

// --- copy-on-write versioning (writer side; reader side in version.go) ------

// CurrentVersion returns the last published version of the tree: one atomic
// load. It is never nil.
func (t *Tree) CurrentVersion() *Version { return t.cur.Load() }

// publish commits the writer's working state as a new immutable Version at
// the next epoch and makes it the current one.
func (t *Tree) publish() *Version {
	v := t.publishAt(t.epoch)
	t.epoch++
	return v
}

// PublishRecords publishes clip records written outside a batch, over a tree
// with no unpublished node changes, under the current epoch (epochs count
// node commits); it does nothing when the writer's directory is unchanged.
func (t *Tree) PublishRecords() {
	if !t.dirShared {
		t.publishAt(t.cur.Load().epoch)
	}
}

// publishAt makes the writer's working state the current version, with the
// given epoch. The directory is handed over as-is and marked shared, and a
// new writer generation opens, so nothing the version holds changes again.
func (t *Tree) publishAt(epoch uint64) *Version {
	t.trimSlack()
	t.syncClips()
	v := &Version{
		tree: t, epoch: epoch,
		root: t.root, size: t.size, height: t.height,
		dir: t.dir,
	}
	if t.src != nil && !t.src.hydrated {
		// Nodes are faulted into this version's directory on demand, from
		// the pages its slots name. Only the open publishes a lazy version: a
		// mutation or a record write hydrates the tree first.
		v.lazy = true
		t.lazyV = v
	}
	t.cur.Store(v)
	t.dirShared = true
	t.gen++
	return v
}

// batchUndo records what RollbackBatch needs to restore the writer
// bookkeeping an explicit batch touched outside the directory: the free list
// and the length of the freed-page list. The directory — nodes, records,
// pages, parents — is taken back from the published version.
type batchUndo struct {
	free     []NodeID
	freedLen int
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

// RollbackBatch discards every mutation since BeginBatch: the writer takes
// the published version's untouched directory and root back — and with it
// every page id and every node's generation, so the next flush writes what it
// would have — and the free list and freed pages are restored.
func (t *Tree) RollbackBatch() {
	if !t.inBatch {
		return
	}
	u := t.undo
	t.inBatch = false
	t.undo = nil
	clear(t.slack)
	t.slack = t.slack[:0]
	t.clipsDirty = t.clipsDirty[:0]
	v := t.cur.Load()
	t.dir, t.dirShared = v.dir, true
	t.root, t.size, t.height = v.root, v.size, v.height
	t.free = u.free
	if t.src != nil {
		t.src.freed = t.src.freed[:u.freedLen]
	}
}

// InBatch reports whether an explicit writer batch is open.
func (t *Tree) InBatch() bool { return t.inBatch }

// autoCommit publishes after a successful mutation, unless a batch is open.
func (t *Tree) autoCommit(err error) {
	if err == nil && !t.inBatch {
		t.publish()
	}
}

// owned returns the writer's object for n's id — n itself when it was
// created or cloned in the current batch, or a clone installed since the
// caller loaded n — or nil while n is shared with a published version.
func (t *Tree) owned(n *node) *node {
	if n.born == t.gen {
		return n
	}
	if c := t.dir.at(n.id).node.Load(); c.born == t.gen {
		return c
	}
	return nil
}

// install puts in the writer's directory, in the stead of the shared node n,
// a new object of the current generation that shares n's boxes, refs and
// qmbb — none of which it may write: its caller gives it fresh boxes and refs
// at once, and qmbb is never written in place.
func (t *Tree) install(n *node) *node {
	c := &node{id: n.id, leaf: n.leaf, level: n.level, born: t.gen, boxes: n.boxes, refs: n.refs, qmbb: n.qmbb}
	t.slotW(n.id).node.Store(c)
	return c
}

// mutable returns the writer's copy of n with room for reserve more slots,
// the number its caller is about to append. n's first write in a batch
// installs a copy whose boxes, refs and planes hold exactly n's slots and the
// reservation. A later one that finds too little room moves the copy into
// arrays with room up to M+1 slots, the most a node holds before it splits,
// so that a node taking many appends in one batch (orphans of a condense,
// several inserts in one leaf) is copied once more, not once per append;
// publish trims it. Every mutation of a node's slots goes through here,
// setRect or removeAt; reads may keep using the shared object.
func (t *Tree) mutable(n *node, reserve int) *node {
	dims := t.cfg.Dims
	c := t.owned(n)
	switch {
	case c == nil:
		c = t.install(n)
		c.resize(reserve, dims)
		c.qplanes = append(make([]uint64, 0, c.planeRoom(dims)), n.qplanes...)
	case cap(c.refs)-len(c.refs) < reserve:
		c.resize(max(reserve, t.cfg.MaxEntries+1-len(c.refs)), dims)
		t.slack = append(t.slack, c)
	}
	return c
}

// setRect makes r slot i's rectangle in the writer's copy of n, which it
// returns with room for reserve more slots. The slots are copied once, into
// fresh arrays that no view aliases yet, and r is written there: a shared n
// is cloned, and an owned one is moved too (keeping its room), since views of
// its arrays may be out (see node).
func (t *Tree) setRect(n *node, i int, r geom.Rect, reserve int) *node {
	dims := t.cfg.Dims
	c := t.owned(n)
	if c == nil {
		c = t.mutable(n, reserve)
	} else {
		c.resize(max(reserve, cap(c.refs)-len(c.refs)), dims)
	}
	copy(c.boxes[i*2*dims:], r.Lo)
	copy(c.boxes[i*2*dims+dims:], r.Hi)
	return c
}

// trimSlack moves every node mutable gave extra room in this batch, and that
// kept some, into arrays of exactly its slots, so the version about to be
// published holds no spare capacity.
func (t *Tree) trimSlack() {
	for _, n := range t.slack {
		if cap(n.refs) != len(n.refs) {
			n.resize(0, t.cfg.Dims)
			n.qplanes = append(make([]uint64, 0, n.planeRoom(t.cfg.Dims)), n.qplanes...)
		}
	}
	clear(t.slack)
	t.slack = t.slack[:0]
}

// removeAt drops slot i from the writer's copy of n and returns it, copying
// the other slots once, into fresh arrays. A copy installed here has no
// planes; the touch that follows builds them.
func (t *Tree) removeAt(n *node, i int) *node {
	c := t.owned(n)
	if c == nil {
		c = t.install(n)
	}
	c.removeAt(i, t.cfg.Dims)
	return c
}

// mbbOf returns n's MBB (zero Rect when n is empty) as a view of qmbb, which
// touch keeps equal to the fold of boxes and never writes in place, so a
// caller may hold it across writes to n. A directory of a tree decoded from
// v2 pages is folded instead: until its first touch its qmbb is the page's
// exact MBB, while its decoded boxes are conservative.
func (t *Tree) mbbOf(n *node) geom.Rect {
	switch {
	case n.count() == 0:
		return geom.Rect{}
	case t.conservative && !n.leaf:
		return n.mbb()
	}
	return boxRect(n.qmbb, 0, t.cfg.Dims)
}

// ChargeNodeRead records one access to the node info describes: a leaf or
// directory read in io, the tally of the read it belongs to, plus a touch of
// pool, the buffer pool the read loaded when it started (nil for none). Every
// read path funnels its accesses through here or chargeReadNode, so tally
// and pool accounting cannot diverge and a page is charged one size.
func ChargeNodeRead(pool *storage.BufferPool, info *NodeInfo, io *storage.Snapshot) {
	chargeRead(pool, info.ID, info.Leaf, info.Bytes+info.PlaneBytes, io)
}

// chargeReadNode is ChargeNodeRead for the search and kNN hot paths, which
// hold the node and build no NodeInfo.
func chargeReadNode(pool *storage.BufferPool, n *node, io *storage.Snapshot) {
	chargeRead(pool, n.id, n.leaf, int(n.encSize)+n.planeBytes(), io)
}

// chargeRead counts the access and touches the pool with the bytes the node
// keeps resident: its encoded page size plus the quantised filter layer
// (planes + quantisation MBB).
func chargeRead(pool *storage.BufferPool, id NodeID, leaf bool, bytes int, io *storage.Snapshot) {
	if leaf {
		io.LeafReads++
	} else {
		io.DirReads++
	}
	if pool != nil {
		pool.TouchSized(int32(id), bytes)
	}
}

// RootID returns the id of the root node, or InvalidNode for an empty tree.
func (t *Tree) RootID() NodeID { return t.root }

// ReadOnly reports whether the tree rejects mutations with ErrReadOnly: it
// was opened read-only, or its page store cannot be written.
func (t *Tree) ReadOnly() bool { return t.src != nil && t.src.readonly }

// FileBacked reports whether the tree is bound to a page store (OpenPaged).
func (t *Tree) FileBacked() bool { return t.src != nil }

// Dirty reports whether a file-backed tree has nodes born since the last
// flush or pages of dissolved nodes not yet released: what FlushDirty writes
// back to the page store. In-memory trees are never dirty.
func (t *Tree) Dirty() bool {
	if t.src == nil {
		return false
	}
	for range t.unflushed() {
		return true
	}
	return len(t.src.freed) > 0
}

// Err returns the first page-fault failure of a file-backed tree (a page
// that could not be read or decoded on demand), or nil. A read with an error
// result returns its own fault; Err is the only report of those without one —
// Count, Stats, and Version's Search, Bounds and Stats — which stop at the
// node they cannot read. No read depends on it.
func (t *Tree) Err() error {
	if p := t.faultErr.Load(); p != nil {
		return *p
	}
	return nil
}

// --- node directory management -----------------------------------------------

func (t *Tree) newNode(leaf bool, level int) *node {
	var id NodeID
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		id = t.grow()
	}
	// The slot may still be shared with a published version holding the
	// freed generation's node, so a fresh object is always allocated: node
	// ids are reused, node objects never are.
	nd := &node{id: id, leaf: leaf, level: int32(level), born: t.gen}
	s := t.slotW(id)
	s.node.Store(nd)
	s.parent, s.lhv = InvalidNode, 0
	t.touch(nd)
	return nd
}

func (t *Tree) freeNode(id NodeID) {
	// Published versions may still traverse the freed node's object, so it
	// is left untouched; the writer's slot gets an empty placeholder of the
	// same shape (present, no entries, no clip record).
	s := t.slotW(id)
	old := s.node.Load()
	s.node.Store(&node{id: id, leaf: old.leaf, level: old.level, born: t.gen})
	s.rec, s.lhv = nil, 0
	t.free = append(t.free, id)
	if t.src != nil && s.page != storage.InvalidPage {
		// The node's page is released by the next flush: the tree is
		// hydrated, so no version reads a page again. A later newNode
		// reusing this id allocates a fresh page with the right kind.
		t.src.freed = append(t.src.freed, s.page)
		s.page = storage.InvalidPage
	}
}

// touch records that a node's persistent state (slots, leaf flag, level)
// changed: the filter layer derived from boxes is refreshed. Every slot
// mutation site calls it, on a node born in the writer's generation — which
// is also what makes the next FlushDirty of a file-backed tree write the node
// back. A site that only appended slots or replaced their rectangles names
// them, so a node whose MBB stayed put re-quantises just those (see
// node.syncSlots) — except a directory of a v2-loaded tree, whose other slots
// may still hold planes adopted from the page: it is re-quantised whole, so
// its planes are again a function of its boxes alone. The node must be
// writer-owned (created or cloned in the current batch); touching a shared
// node object would mutate a published version under its readers.
func (t *Tree) touch(n *node, slots ...int) {
	if n.born != t.gen {
		panic(fmt.Sprintf("rtree: touch of node %d shared with a published version (born %d, generation %d)", n.id, n.born, t.gen))
	}
	if !n.leaf {
		t.clipsDirty = append(t.clipsDirty, n.id)
		if t.conservative {
			slots = nil
		}
	}
	n.syncDerived(t.cfg.Dims, slots...)
}

// mustNode is the node accessor of the mutation paths. They run on a
// hydrated directory (ensureMutable), so a missing id is a broken invariant
// and panics, like touch on a shared node.
func (t *Tree) mustNode(id NodeID) *node {
	n := t.dir.node(id)
	if n == nil {
		panic(fmt.Sprintf("rtree: mutation reached node %d, which the directory does not hold", id))
	}
	return n
}

// ensureMutable gates every mutation. In-memory trees are always mutable, a
// read-only file-backed tree fails with ErrReadOnly, and a writable one must
// be hydrated (Materialize; the first mutation pays for it), after which the
// mutation algorithms run exactly as in memory; the nodes they write are born
// in the writer's generation, which is how the next flush finds them.
func (t *Tree) ensureMutable() error {
	if t.src != nil && t.src.readonly {
		return ErrReadOnly
	}
	if err := t.Materialize(); err != nil {
		return fmt.Errorf("rtree: hydrating file-backed tree for mutation: %w", err)
	}
	return nil
}

// node is the writer-side node accessor: the directory lookup used by the
// mutation algorithms, Validate, FlushDirty, and friends. Before a
// file-backed tree is hydrated it is the lazy version's node, so the
// directory fills in exactly as reads do. An id the writer's directory does
// not hold, or a page that cannot be read, is an error.
func (t *Tree) node(id NodeID) (*node, error) {
	if t.src != nil && !t.src.hydrated {
		return t.lazyV.node(id)
	}
	if n := t.dir.node(id); n != nil {
		return n, nil
	}
	return nil, missing(id)
}

// missing is the error of an id that names no node.
func missing(id NodeID) error { return fmt.Errorf("rtree: node %d does not exist", id) }

// fault loads one node page from the page store into a lazy version's
// directory: the one place a page becomes a node of a tree, and the one place
// a fault error is born (no page for the id, unreadable page, decode error, a
// page that claims another node's id). Concurrent cold readers fault pages
// in parallel, each installing its node with a CAS on the slot, and a node
// installed meanwhile — by another reader or by hydration — wins over a
// success or a failure alike. Hydration fills the directory before any page
// can be freed, rewritten or recycled, so a stale fault that read such a page
// returns the hydrated node instead. The page is the one the version's own
// slot names, which is never written after publication.
func (t *Tree) fault(v *Version, id NodeID) (*node, error) {
	var n *node
	var ferr error
	if !v.dir.has(id) {
		ferr = fmt.Errorf("rtree: node id %d out of range", id)
	} else if pid := v.dir.at(id).page; pid == storage.InvalidPage {
		ferr = fmt.Errorf("rtree: node %d has no page in the snapshot", id)
	} else if buf, _, err := t.src.store.Read(pid); err != nil {
		ferr = fmt.Errorf("rtree: reading page %d for node %d: %w", pid, id, err)
	} else if n, err = decodeNodeCodec(buf, t.cfg.Dims, t.src.codec); err != nil {
		ferr = fmt.Errorf("rtree: decoding page %d for node %d: %w", pid, id, err)
	} else if n.id != id {
		ferr = fmt.Errorf("rtree: page %d claims node id %d, expected %d", pid, n.id, id)
	} else {
		n.clips = n.buildClips(t.cfg.Dims, v.dir.record, nil, nil)
	}
	if ferr == nil && v.dir.at(id).node.CompareAndSwap(nil, n) {
		return n, nil
	}
	if cached := v.dir.node(id); cached != nil {
		return cached, nil
	}
	return nil, t.parkFault(ferr)
}

// parkFault records err as the tree's first fault failure, for Err, and
// returns it.
func (t *Tree) parkFault(err error) error {
	t.faultErr.CompareAndSwap(nil, &err)
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
	// layer (see quant.go): PlaneBits-wide coordinates on a directory node,
	// LeafPlaneBits-wide on a leaf. It rides on top of Bytes in pool
	// accounting.
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
// search's scan kernel (quantiseQuery, then quantScan on a directory node's
// 16-bit planes or leafScan on a leaf's 8-bit ones) over a published node's
// planes, through the caller's scratch mask (replaced when too small). A node
// without a filter layer yields none, as range search skips it.
func (ni *NodeInfo) Restrict(q geom.Rect, mask *[]uint64, dst []int) []int {
	count, dims := len(ni.refs), ni.dims
	if q.Dims() != dims || len(ni.qmbb) != 2*dims || len(ni.qplanes) != 2*dims*planeWords(count, ni.Leaf) {
		return dst
	}
	var qg [2 * geom.MaxDims]uint16
	quantiseQuery(ni.qmbb, dims, q.Lo, q.Hi, &qg)
	*mask = slices.Grow((*mask)[:0], (count+63)>>6)[:(count+63)>>6]
	scanPlanes(ni.Leaf, ni.qplanes, count, dims, &qg, *mask)
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

// info describes the node for Node and Walk, with the parent its directory
// slot records.
func (n *node) info(parent NodeID, dims int) NodeInfo {
	ni := NodeInfo{
		ID: n.id, Parent: parent, Leaf: n.leaf, Level: int(n.level),
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
	n, err := t.node(id)
	if err != nil {
		return NodeInfo{}, err
	}
	return n.info(t.parentOf(id), t.cfg.Dims), nil
}

// Walk visits every live node of the writer's tree top-down, calling fn with
// a snapshot of each; a node it cannot read ends the walk with its error. It
// does not charge I/O; it is for clip tables, statistics and validation.
func (t *Tree) Walk(fn func(NodeInfo)) error {
	v := t.lazyV // the writer's state, until a file-backed tree is hydrated
	if t.src == nil || t.src.hydrated {
		v = &Version{tree: t, root: t.root, dir: t.dir}
	}
	return v.walk(func(n *node) error {
		fn(n.info(t.parentOf(n.id), t.cfg.Dims))
		return nil
	})
}

// Count returns the number of objects intersecting q at the last committed
// version. A page fault ends the count and is reported only through Err.
func (t *Tree) Count(q geom.Rect) int {
	n := 0
	t.cur.Load().Search(q, func(ObjectID, geom.Rect) bool { n++; return true })
	return n
}

// AllItems returns every object as bulk-load items, in no particular order,
// without charging I/O, or the error of a node it could not read. The
// rectangles are views (see Entry). It is the export hook for shard rebuilds:
// the sharded engine enumerates a shard with AllItems, partitions the items
// by Hilbert key, and BulkLoads each half into a fresh tree.
func (t *Tree) AllItems() ([]Item, error) {
	out := make([]Item, 0, t.size)
	err := t.Walk(func(info NodeInfo) {
		for i := 0; i < info.Len() && info.Leaf; i++ {
			out = append(out, Item{Object: info.Object(i), Rect: info.Rect(i)})
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
