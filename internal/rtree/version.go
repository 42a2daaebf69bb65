package rtree

import (
	"math/bits"
	"sync"

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
// The one version a lazy open (OpenPaged) publishes holds a directory whose
// slots carry their nodes' pages: a node missing from it is brought in by
// Tree.fault on first access, from its slot's page, and installed with a CAS
// on that slot — no lock on any read path. Tree.hydrate, the only code that
// brings every page in, faults the same way and then gives the writer a copy
// of the directory with parents and Hilbert LHVs, published in the lazy
// version's stead. A writer's first mutation or record write hydrates, so no
// page is rewritten before the lazy directory is full.
//
// Old versions need no reclamation of their own: dropping the last
// reference to a Version lets the Go runtime collect the nodes and chunks
// only it referenced. Pages need none either. Only the lazy version reads
// pages, and a page is freed only by a mutation, after hydration has filled
// that version's directory: from then on no version reads a page again, so
// the next flush releases freed pages at once (see FlushDirty).

// Version is an immutable snapshot of a Tree at one committed epoch.
// Obtain one with Tree.CurrentVersion; every read-only operation on it —
// Search, SearchClipped, NearestNeighbors, Node, Record, Bounds, Stats — sees
// exactly the state of that commit, regardless of concurrent writer
// activity. Its clip records are the ones its clip layer published with it;
// Search and NearestNeighbors ignore them, and the public cbb layer reads
// through clipindex.Snap, whose reads use them.
type Version struct {
	tree   *Tree
	epoch  uint64
	root   NodeID
	size   int
	height int
	dir    directory
	lazy   bool // nodes are faulted in from their slots' pages on demand
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

// node returns the node with the given id at this version, or the error that
// keeps it from the caller: the one node accessor of every read, and the only
// way a read learns of a fault. A lazy version faults a missing node in from
// the page its slot names (Tree.fault); an id outside the version is an error.
func (v *Version) node(id NodeID) (*node, error) {
	if n := v.dir.node(id); n != nil {
		return n, nil
	}
	if v.lazy {
		return v.tree.fault(v, id)
	}
	return nil, missing(id)
}

// Bounds returns the MBB of all objects at this version (zero Rect when
// empty).
func (v *Version) Bounds() geom.Rect {
	if v.root != InvalidNode {
		if n, err := v.node(v.root); err == nil {
			return n.mbb()
		}
	}
	return geom.Rect{}
}

// RootMBBIntersects reports whether q intersects the MBB of the root node at
// this version, without charging I/O or allocating; the MBB is read from the
// root's qmbb, the exact MBB its planes are quantised against. It returns
// false for an empty tree, and true when the root has no slots (the vacuous
// truth of the zero Rect) or cannot be read (so callers fall through to the
// regular search path, which returns the fault).
func (v *Version) RootMBBIntersects(q geom.Rect) bool {
	if v.root == InvalidNode {
		return false
	}
	n, err := v.node(v.root)
	if err != nil || n.count() == 0 || len(n.qmbb) != 2*len(q.Lo) {
		return true
	}
	return boxRect(n.qmbb, 0, len(q.Lo)).Intersects(q)
}

// Node returns a read-only snapshot of the node with the given id at this
// version, or the error that kept a lazy version from bringing its page in.
// Parent is the parent the version's directory records: InvalidNode for the
// root, and on a lazy version, whose pages do not store parents, for every
// node.
func (v *Version) Node(id NodeID) (NodeInfo, error) {
	n, err := v.node(id)
	if err != nil {
		return NodeInfo{}, err
	}
	return n.info(v.dir.at(id).parent, v.tree.cfg.Dims), nil
}

// Search finds every object intersecting q at this version; traversal stops
// early when visit returns false. Node accesses are charged to the owning
// tree's counter. A page fault ends the search and is reported only through
// Tree.Err; SearchCounted returns it.
func (v *Version) Search(q geom.Rect, visit func(ObjectID, geom.Rect) bool) {
	_, _ = v.SearchCounted(q, nil, visit) // a fault is reported through Tree.Err
}

// SearchCounted is Search with the node accesses charged to c instead of the
// tree's own counter (the tree's counter when c is nil). It returns what it
// charged, and the fault of a node it could not read, which ended it.
func (v *Version) SearchCounted(q geom.Rect, c *storage.Counter, visit func(ObjectID, geom.Rect) bool) (storage.Snapshot, error) {
	io, err := v.search(q, false, visit)
	if c == nil {
		c = v.tree.counter
	}
	c.Add(io)
	return io, err
}

// searchScratch is the pooled per-query working state: a range search's
// explicit DFS stack; a nearest-neighbour search's frontier (a min-heap of
// unread nodes), candidates (a max-heap of the k best objects seen), the box
// arrays both point into, one access tally and buffer pool per source, the
// pending masks of the directory nodes it read, a leaf's mask of entries
// already scanned, and the squared radius of the ball the query extents hold;
// and for either the query extents (the ball's box around the point) in fixed
// flat arrays, so the hot loop compares contiguous memory with contiguous
// memory, plus the grid-domain query window and survivor bitmask of the
// quantised scan kernel.
type searchScratch struct {
	stack       []NodeID
	front, best []knnEntry
	read        []knnRead
	io          []storage.Snapshot
	pools       []*storage.BufferPool
	pend        []uint64 // children not keyed yet, per directory read (knnRead)
	done        survivorMask
	ball        float64
	qlo         [geom.MaxDims]float64
	qhi         [geom.MaxDims]float64
	qg          [2 * geom.MaxDims]uint16
	sel         core.Sel  // q laid out for the clip records' tests
	probe       clipProbe // q laid out for a node's clip copy
	mask        survivorMask
}

// survivorMask is the buffer for the scan kernels' bitmask. The inline words serve
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
// fault, and charges the accesses to no counter; Search and SearchCounted,
// which run the same descent without the records, do.
func (v *Version) SearchClipped(q geom.Rect, visit func(ObjectID, geom.Rect) bool) (storage.Snapshot, error) {
	return v.search(q, true, visit)
}

// search is the descent behind Search and SearchClipped: iterative and
// depth-first over a pooled stack, against one immutable version. Per node
// the quantised SoA planes are scanned first (scanPlanes: leafScan on a
// leaf's 8-bit planes, quantScan on a directory's 16-bit ones, branch-free,
// ANDing a survivor bitmask across dimensions); only survivors touch the exact
// float64 boxes — leaf survivors get one exact verification before visit,
// directory survivors are recursed into directly off the conservative grid
// verdict (admissible by the same containment argument as the v2 on-disk
// format; see quant.go), except that one with a clip record (when clipped)
// first gets Algorithm 2: the exact MBB test on boxes, then the dominance
// test, run on the node's clip copy against the query's grid coordinates
// and, for a child in the copy's one-cell rounding band (or in a tree of
// more dimensions than a copy serves), on the record in the child's slot.
// Every published copy matches its children's records (Tree.syncClips).
// Children without a record are not tested exactly; that asymmetry is part
// of the access counts every store reproduces.
// Survivors are walked in ascending entry order
// (trailing-zero iteration over the mask words) and admitted children are
// reversed on the stack, so nodes are processed — and I/O is charged — in
// exactly the order the recursive implementation used. Every store faults
// nodes in with identical planes (quant.go), so results, visit order, and
// leaf/directory access counts are bit-identical across mem/file/v2/mmap.
// In steady state it performs no heap allocations, takes no locks, and
// touches no shared mutable state beyond an attached buffer pool, loaded
// once: the one version load its caller performed pins the entire
// traversal, nodes and records alike. The query is validated here and
// nowhere else. A node it cannot read ends it, with that node's error.
func (v *Version) search(q geom.Rect, clipped bool, visit func(ObjectID, geom.Rect) bool) (io storage.Snapshot, err error) {
	t := v.tree
	if v.root == InvalidNode || !q.Valid() || q.Dims() != t.cfg.Dims {
		return io, nil
	}
	dims := t.cfg.Dims
	pool := t.pool.Load()
	sc := searchScratchPool.Get().(*searchScratch)
	if clipped {
		sc.sel.Query(q)
		// The root's own MBB and clip points can prune the query outright,
		// before any node is read (an unreadable root falls through to the
		// descent, which returns its fault).
		if !v.RootMBBIntersects(q) || v.dir.record(v.root).Dead(dims, &sc.sel) {
			searchScratchPool.Put(sc)
			return io, nil
		}
	}
	copy(sc.qlo[:dims], q.Lo)
	copy(sc.qhi[:dims], q.Hi)
	stack := append(sc.stack[:0], v.root)
descent:
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var n *node
		if n, err = v.node(id); err != nil {
			break
		}
		if !n.hasPlanes(dims) {
			continue // only freed-slot placeholders lack a filter layer
		}
		count := n.count()
		quantiseQuery(n.qmbb, dims, sc.qlo[:], sc.qhi[:], &sc.qg)
		mask := sc.mask.sized(count)
		scanPlanes(n.leaf, n.qplanes, count, dims, &sc.qg, mask)
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
							break descent
						}
					}
				}
			}
			continue
		}
		chargeReadNode(pool, n, &io)
		clips, probed := n.clips, false
		base := len(stack)
		for w := range mask {
			m := mask[w]
			for m != 0 {
				i := w<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				child := n.child(i)
				switch {
				case !clipped:
				case clips != nil:
					pts := clips.points(i)
					if len(pts) == 0 {
						break
					}
					if !boxHits(boxes, i*2*dims, dims, &sc.qlo, &sc.qhi) {
						continue
					}
					if !probed {
						sc.probe.set(&sc.qg, dims)
						probed = true
					}
					switch sc.probe.verdict(pts) {
					case clipDead:
						continue
					case clipBand:
						if v.dir.record(child).Dead(dims, &sc.sel) {
							continue
						}
					}
				default:
					if rec := v.dir.record(child); len(rec) > 0 && (!boxHits(boxes, i*2*dims, dims, &sc.qlo, &sc.qhi) || rec.Dead(dims, &sc.sel)) {
						continue
					}
				}
				stack = append(stack, child)
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
	return io, err
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
