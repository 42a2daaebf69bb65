package rtree

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/storage"
)

// This file implements the reader half of the tree's copy-on-write epoch
// versioning. A Version is an immutable snapshot published by a writer
// commit: root, object count, height, and the node directory of that epoch
// (dir.go) — every node with its clip record. A reader loads the current
// version once per query and traverses it without synchronisation: nothing a
// published version references is written again.
//
// The one version a lazy open (OpenPaged) publishes keeps the page map of its
// epoch: a node missing from the directory is brought in by Tree.fault on
// first access and installed with a CAS on its slot — no lock on any read
// path. Tree.hydrate, the only code that brings every page in, faults the
// same way and then gives the writer a copy of the directory with parents and
// Hilbert LHVs, published in the lazy version's stead. A writer's first
// mutation or record write hydrates, so no page is rewritten before the lazy
// directory is full.
//
// Old versions are reclaimed by epoch-based garbage collection: in memory,
// dropping the last reference to a Version lets the Go runtime collect the
// nodes and chunks only it referenced; on disk, pages freed by a batch are
// released to the file pager's free list only once no pinned version is old
// enough to still reference them (see FlushDirty).

// Version is an immutable snapshot of a Tree at one committed epoch.
// Obtain one with Tree.CurrentVersion (Pin it for a long-lived read view);
// every read-only operation on it — Search, SearchClipped,
// NearestNeighbors, Node, Record, Bounds, Stats — sees exactly the state of
// that commit, regardless of concurrent writer activity. Its clip records are
// the ones its clip layer published with it; Search and NearestNeighbors
// ignore them, and the public cbb layer reads through clipindex.Snap, whose
// reads use them.
type Version struct {
	tree   *Tree
	epoch  uint64
	root   NodeID
	size   int
	height int
	dir    directory
	lazy   bool                      // nodes are faulted in from pages on demand
	pages  map[NodeID]storage.PageID // page map of this epoch (lazy versions)

	pins atomic.Int64
}

// Epoch returns the commit epoch of the version. Epochs increase by one per
// committed batch; two versions of the same tree with the same epoch hold the
// same nodes.
func (v *Version) Epoch() uint64 { return v.epoch }

// Tree returns the tree this version was published by.
func (v *Version) Tree() *Tree { return v.tree }

// Len returns the number of objects indexed at this version's epoch.
func (v *Version) Len() int { return v.size }

// Height returns the number of tree levels at this version's epoch.
func (v *Version) Height() int { return v.height }

// RootID returns the root node id at this version's epoch.
func (v *Version) RootID() NodeID { return v.root }

// Dims returns the dimensionality of the indexed rectangles.
func (v *Version) Dims() int { return v.tree.cfg.Dims }

// Pin marks the version as referenced by a long-lived read view, deferring
// the release of file pages freed by later batches until Unpin. Pins are
// counted; every Pin must be matched by exactly one Unpin.
func (v *Version) Pin() { v.pins.Add(1) }

// Unpin releases a pin taken with Pin.
func (v *Version) Unpin() { v.pins.Add(-1) }

// node returns the node with the given id at this version, nil for an id
// outside it. A lazy version faults a missing node in (reading the version's
// own page map) and returns nil for one that cannot be brought in; the
// failure is parked in Tree.Err.
func (v *Version) node(id NodeID) *node {
	n, _ := v.nodeErr(id)
	return n
}

// nodeErr is node with the fault's error.
func (v *Version) nodeErr(id NodeID) (*node, error) {
	if v.dir.has(id) {
		if n := v.dir.at(id).node.Load(); n != nil || !v.lazy {
			return n, nil
		}
	} else if !v.lazy {
		return nil, nil
	}
	return v.tree.fault(v, id)
}

// Bounds returns the MBB of all objects at this version (zero Rect when
// empty).
func (v *Version) Bounds() geom.Rect {
	if v.root == InvalidNode {
		return geom.Rect{}
	}
	n := v.node(v.root)
	if n == nil {
		return geom.Rect{}
	}
	return n.mbb()
}

// RootMBBIntersects reports whether q intersects the MBB of the root node at
// this version, without charging I/O or allocating; the MBB is read from the
// root's qmbb, the exact MBB its planes are quantised against. It returns
// false for an empty tree, and true when the root has no slots (the vacuous
// truth of the zero Rect) or cannot be read (so callers fall through to the
// regular search path, which records the fault).
func (v *Version) RootMBBIntersects(q geom.Rect) bool {
	if v.root == InvalidNode {
		return false
	}
	n, dims := v.node(v.root), len(q.Lo)
	if n == nil || n.count() == 0 || len(n.qmbb) != 2*dims {
		return true
	}
	return boxRect(n.qmbb, 0, dims).Intersects(q)
}

// Node returns a read-only snapshot of the node with the given id at this
// version, or the error that kept a lazy version from bringing its page in.
// Parent is the parent the version's directory records: InvalidNode for the
// root, and on a lazy version, whose pages do not store parents, for every
// node.
func (v *Version) Node(id NodeID) (NodeInfo, error) {
	n, err := v.nodeErr(id)
	if err != nil {
		return NodeInfo{}, err
	}
	if n == nil {
		return NodeInfo{}, fmt.Errorf("rtree: node %d does not exist", id)
	}
	return n.info(v.dir.at(id).parent, v.tree.cfg.Dims), nil
}

// Search finds every object intersecting q at this version; traversal stops
// early when visit returns false. Node accesses are charged to the owning
// tree's counter.
func (v *Version) Search(q geom.Rect, visit func(ObjectID, geom.Rect) bool) {
	v.SearchCounted(q, nil, visit)
}

// SearchCounted is Search with the node accesses charged to c instead of the
// tree's own counter (the tree's counter when c is nil). It returns what it
// charged.
func (v *Version) SearchCounted(q geom.Rect, c *storage.Counter, visit func(ObjectID, geom.Rect) bool) storage.Snapshot {
	io := v.search(q, false, visit)
	if c == nil {
		c = v.tree.counter
	}
	c.Add(io)
	return io
}

// searchScratch is the pooled per-query working state: a range search's
// explicit DFS stack; a nearest-neighbour search's frontier (a min-heap of
// unread nodes), candidates (a max-heap of the k best objects seen), the box
// arrays both point into and one access tally and buffer pool per source; and for either the
// query extents (the ball around the point) in fixed flat arrays, so the hot
// loop compares contiguous memory with contiguous memory, plus the
// grid-domain query window and survivor bitmask of the quantised scan kernel.
type searchScratch struct {
	stack       []NodeID
	front, best []knnEntry
	read        []knnRead
	io          []storage.Snapshot
	pools       []*storage.BufferPool
	qlo         [geom.MaxDims]float64
	qhi         [geom.MaxDims]float64
	qg          [2 * geom.MaxDims]uint16
	sel         core.Sel // q laid out for the clip records' tests
	mask        survivorMask
}

// survivorMask is the buffer for quantScan's bitmask. The inline words serve
// nodes of up to 256 entries (every page-derived fanout) without a separate
// allocation; spill is for configurations with a larger fanout (amortised to
// zero by the pool).
type survivorMask struct {
	inline [4]uint64
	spill  []uint64
}

// sized returns the buffer sized for count entries.
func (m *survivorMask) sized(count int) []uint64 {
	words := (count + 63) >> 6
	if words <= len(m.inline) {
		return m.inline[:words]
	}
	if cap(m.spill) < words {
		m.spill = make([]uint64, words)
	}
	return m.spill[:words]
}

var searchScratchPool = sync.Pool{
	New: func() interface{} { return &searchScratch{stack: make([]NodeID, 0, 64)} },
}

// SearchClipped is the range-query hot path over clipped bounding boxes
// (Algorithm 2), with the clip records of this version: a directory child
// that has a record is visited only if q intersects its exact MBB and no clip
// point certifies that overlap dead, and the root's own MBB and record are
// tested before any node is read. It returns the query's node accesses and
// charges them to no counter; Search and SearchCounted, which run the same
// descent without the records, do.
func (v *Version) SearchClipped(q geom.Rect, visit func(ObjectID, geom.Rect) bool) storage.Snapshot {
	return v.search(q, true, visit)
}

// search is the descent behind Search and SearchClipped: iterative and
// depth-first over a pooled stack, against one immutable version. Per node
// the quantised SoA planes are scanned first (quantScan, branch-free, ANDing a
// survivor bitmask across dimensions); only survivors touch the exact
// float64 boxes — leaf survivors get one exact verification before visit,
// directory survivors are recursed into directly off the conservative grid
// verdict (admissible by the same containment argument as the v2 on-disk
// format; see quant.go), except that one with a clip record (when clipped)
// first gets Algorithm 2 straight from the record: the exact MBB test on
// boxes, then the dominance loop. Children without a record are not tested
// exactly; that asymmetry is part of the access counts every store
// reproduces. Survivors are walked in ascending entry order
// (trailing-zero iteration over the mask words) and admitted children are
// reversed on the stack, so nodes are processed — and I/O is charged — in
// exactly the order the recursive implementation used. Every store faults
// nodes in with identical planes (quant.go), so results, visit order, and
// leaf/directory access counts are bit-identical across mem/file/v2/mmap.
// In steady state it performs no heap allocations, takes no locks, and
// touches no shared mutable state beyond an attached buffer pool, loaded
// once: the one version load its caller performed pins the entire
// traversal, nodes and records alike. The query is validated here and
// nowhere else.
func (v *Version) search(q geom.Rect, clipped bool, visit func(ObjectID, geom.Rect) bool) (io storage.Snapshot) {
	t := v.tree
	if v.root == InvalidNode || !q.Valid() || q.Dims() != t.cfg.Dims {
		return io
	}
	dims := t.cfg.Dims
	pool := t.pool.Load()
	sc := searchScratchPool.Get().(*searchScratch)
	if clipped {
		sc.sel.Query(q)
		// The root's own MBB and clip points can prune the query outright,
		// before any node is read (an unreadable root falls through to the
		// descent, which skips it).
		if !v.RootMBBIntersects(q) || v.dir.record(v.root).Dead(dims, &sc.sel) {
			searchScratchPool.Put(sc)
			return io
		}
	}
	copy(sc.qlo[:dims], q.Lo)
	copy(sc.qhi[:dims], q.Hi)
	stack := append(sc.stack[:0], v.root)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := v.node(id)
		if n == nil || !n.hasPlanes(dims) {
			// An unreadable page on a file-backed tree (recorded in Err), or a
			// node without a filter layer: only freed-slot placeholders lack
			// one, and no live root reaches them.
			continue
		}
		count := n.count()
		quantiseQuery(n.qmbb, dims, sc.qlo[:], sc.qhi[:], &sc.qg)
		mask := sc.mask.sized(count)
		quantScan(n.qplanes, count, dims, &sc.qg, mask)
		boxes := n.boxes
		if n.leaf {
			chargeReadNode(pool, n, &io)
			for w := range mask {
				m := mask[w]
				for m != 0 {
					i := w<<6 + bits.TrailingZeros64(m)
					m &= m - 1
					if boxHits(boxes, i*2*dims, dims, &sc.qlo, &sc.qhi) {
						if !visit(n.object(i), boxRect(boxes, i, dims)) {
							sc.stack = stack[:0]
							searchScratchPool.Put(sc)
							return io
						}
					}
				}
			}
			continue
		}
		chargeReadNode(pool, n, &io)
		base := len(stack)
		for w := range mask {
			m := mask[w]
			for m != 0 {
				i := w<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				child := n.child(i)
				if !clipped {
					stack = append(stack, child)
				} else if rec := v.dir.record(child); len(rec) == 0 || boxHits(boxes, i*2*dims, dims, &sc.qlo, &sc.qhi) && !rec.Dead(dims, &sc.sel) {
					stack = append(stack, child)
				}
			}
		}
		// Reverse the admitted children so the first entry is popped first,
		// preserving the recursive depth-first visit order.
		for i, j := base, len(stack)-1; i < j; i, j = i+1, j-1 {
			stack[i], stack[j] = stack[j], stack[i]
		}
	}
	sc.stack = stack[:0]
	searchScratchPool.Put(sc)
	return io
}

// boxHits reports whether the entry box starting at boxes[off] (dims Lo
// extents followed by dims Hi extents) intersects the query extents.
func boxHits(boxes []float64, off, dims int, qlo, qhi *[geom.MaxDims]float64) bool {
	for d := 0; d < dims; d++ {
		if boxes[off+dims+d] < qlo[d] || qhi[d] < boxes[off+d] {
			return false
		}
	}
	return true
}
