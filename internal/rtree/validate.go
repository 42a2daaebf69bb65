package rtree

import (
	"fmt"

	"cbb/internal/geom"
)

// Validate checks the structural invariants of the tree and returns the
// first violation found, or nil. It is used by tests and by the cbbinspect
// tool; it never charges I/O.
//
// Invariants checked:
//   - every node's slot store is well formed (checkSlots) and its filter
//     layer is conservative for it (checkPlanes);
//   - every node's entry count is within [MinEntries, MaxEntries], except
//     the root (which may hold fewer) and single-leaf trees;
//   - directory entries' rectangles equal the MBB of the referenced child;
//   - the parents the directory records are consistent with directory
//     entries;
//   - all leaves are at level 0 and all levels are consistent
//     (child level = parent level − 1);
//   - the number of reachable objects equals Len().
func (t *Tree) Validate() error {
	if t.root == InvalidNode {
		if t.size != 0 {
			return fmt.Errorf("rtree: empty tree with size %d", t.size)
		}
		return nil
	}
	// A file-backed tree must be hydrated first: validation needs the
	// parents, which the page layout does not store.
	if err := t.Materialize(); err != nil {
		return err
	}
	root := t.node(t.root)
	if root == nil {
		return fmt.Errorf("rtree: root %d is nil", t.root)
	}
	if p := t.parentOf(t.root); p != InvalidNode {
		return fmt.Errorf("rtree: root %d has parent %d", root.id, p)
	}
	if root.level != t.height-1 {
		return fmt.Errorf("rtree: root level %d does not match height %d", root.level, t.height)
	}
	objects := 0
	var check func(id NodeID) error
	check = func(id NodeID) error {
		n := t.node(id)
		if n == nil {
			return fmt.Errorf("rtree: node %d is nil", id)
		}
		if n.count() > t.cfg.MaxEntries {
			return fmt.Errorf("rtree: node %d has %d entries (max %d)", id, n.count(), t.cfg.MaxEntries)
		}
		if err := t.checkSlots(n); err != nil {
			return err
		}
		if err := t.checkPlanes(n); err != nil {
			return err
		}
		if id != t.root && n.count() < t.cfg.MinEntries {
			return fmt.Errorf("rtree: node %d has %d entries (min %d)", id, n.count(), t.cfg.MinEntries)
		}
		if n.leaf {
			if n.level != 0 {
				return fmt.Errorf("rtree: leaf %d at level %d", id, n.level)
			}
			objects += n.count()
			return nil
		}
		for i := range n.refs {
			e := n.entry(i, t.cfg.Dims)
			child := t.node(e.Child)
			if p := t.parentOf(e.Child); p != id {
				return fmt.Errorf("rtree: child %d has parent %d, expected %d", child.id, p, id)
			}
			if child.level != n.level-1 {
				return fmt.Errorf("rtree: child %d at level %d under parent at level %d", child.id, child.level, n.level)
			}
			childMBB := child.mbb()
			if t.conservative {
				// Trees decoded from compressed (v2) pages carry directory
				// rects rounded outward by quantisation: a rect must contain
				// its child's MBB, but need not equal it.
				if !e.Rect.ContainsRect(childMBB) {
					return fmt.Errorf("rtree: entry rect %v for child %d does not contain child MBB %v", e.Rect, child.id, childMBB)
				}
			} else if !e.Rect.Equal(childMBB) {
				return fmt.Errorf("rtree: entry rect %v for child %d does not equal child MBB %v", e.Rect, child.id, childMBB)
			}
			if err := check(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(t.root); err != nil {
		return err
	}
	if objects != t.size {
		return fmt.Errorf("rtree: reachable objects %d != size %d", objects, t.size)
	}
	return nil
}

// checkSlots verifies the node's one slot store: boxes holds exactly 2·dims
// coordinates per ref, every box is finite with lo <= hi, every directory
// ref names a live node, and no object id repeats within a leaf.
func (t *Tree) checkSlots(n *node) error {
	dims := t.cfg.Dims
	if len(n.boxes) != n.count()*2*dims {
		return fmt.Errorf("rtree: node %d has %d coordinates for %d entries (want %d)",
			n.id, len(n.boxes), n.count(), n.count()*2*dims)
	}
	for i, ref := range n.refs {
		if r := n.rect(i, dims); !r.Valid() {
			return fmt.Errorf("rtree: node %d entry %d has invalid rect %v", n.id, i, r)
		}
		if !n.leaf {
			if c := NodeID(ref); int64(c) != ref || !t.dir.has(c) || t.dir.at(c).node.Load() == nil {
				return fmt.Errorf("rtree: node %d references missing child %d", n.id, ref)
			}
			continue
		}
		for _, other := range n.refs[:i] {
			if other == ref {
				return fmt.Errorf("rtree: leaf %d holds object %d twice", n.id, ref)
			}
		}
	}
	return nil
}

// checkPlanes verifies the node's quantised SoA filter layer against the
// exact boxes: the planes must be conservative (each grid bound decodes to
// at most the exact lower / at least the exact upper bound — the property
// the scan kernels rely on to never miss a hit), and, wherever the planes
// were computed from exact rects (every node except directories adopted
// verbatim from a compressed v2 page), they must be exactly the
// qlower/qupper quantisation of boxes against a qmbb that is their true MBB.
func (t *Tree) checkPlanes(n *node) error {
	dims := t.cfg.Dims
	count := n.count()
	if !n.hasPlanes(dims) {
		return fmt.Errorf("rtree: node %d has %d plane words and %d MBB extents for %d entries (want %d and %d)",
			n.id, len(n.qplanes), len(n.qmbb), count, 2*dims*planeWords(count), 2*dims)
	}
	if count == 0 {
		return nil
	}
	// Directory nodes of a v2-loaded tree carry the page's stored grid
	// coordinates and MBB; their decoded rects sit outward of both, so
	// only the conservativeness half applies to them.
	adopted := t.conservative && !n.leaf
	mbb := boxesMBB(n.boxes, dims)
	for d := 0; d < dims; d++ {
		lo, hi := n.qmbb[d], n.qmbb[dims+d]
		if !adopted && (lo != mbb[d] || hi != mbb[dims+d]) {
			return fmt.Errorf("rtree: node %d plane MBB [%v, %v] in dim %d does not match box MBB [%v, %v]",
				n.id, lo, hi, d, mbb[d], mbb[dims+d])
		}
		off := 0
		for i := 0; i < count; i++ {
			elo, ehi := n.boxes[off+d], n.boxes[off+dims+d]
			plo, phi := n.planeAt(dims, d, i, false), n.planeAt(dims, d, i, true)
			if qdecode(lo, hi, uint32(plo)) > elo || qdecode(lo, hi, uint32(phi)) < ehi {
				return fmt.Errorf("rtree: node %d entry %d plane [%d, %d] in dim %d is not conservative for [%v, %v]",
					n.id, i, plo, phi, d, elo, ehi)
			}
			if !adopted && (plo != qlower(elo, lo, hi) || phi != qupper(ehi, lo, hi)) {
				return fmt.Errorf("rtree: node %d entry %d plane [%d, %d] in dim %d is not the tight quantisation of [%v, %v] (want [%d, %d])",
					n.id, i, plo, phi, d, elo, ehi, qlower(elo, lo, hi), qupper(ehi, lo, hi))
			}
			off += 2 * dims
		}
	}
	return nil
}

// Stats summarises structural statistics used by the evaluation figures.
type Stats struct {
	Objects    int
	Height     int
	LeafNodes  int
	DirNodes   int
	AvgLeafOcc float64 // average leaf occupancy as a fraction of MaxEntries
	AvgDirOcc  float64 // average directory occupancy as a fraction of MaxEntries
	Bounds     geom.Rect
	// PlaneBytes is the total resident size of the quantised SoA filter
	// layer across all nodes (see quant.go).
	PlaneBytes int
}

// Stats computes the structural statistics of the last committed version
// without charging I/O. Unlike Walk it reads only published, immutable
// state, so it may run concurrently with the writer.
func (t *Tree) Stats() Stats { return t.cur.Load().Stats() }

// Stats computes the structural statistics of this version without charging
// I/O. The version is immutable, so this is safe at any time from any
// goroutine.
func (v *Version) Stats() Stats {
	s := Stats{Objects: v.size, Height: v.height, Bounds: v.Bounds()}
	var leafEntries, dirEntries int
	_ = v.walk(func(n *node) error { // an unreadable node ends the count
		s.PlaneBytes += n.planeBytes()
		if n.leaf {
			s.LeafNodes++
			leafEntries += n.count()
		} else {
			s.DirNodes++
			dirEntries += n.count()
		}
		return nil
	})
	maxEntries := v.tree.cfg.MaxEntries
	if s.LeafNodes > 0 {
		s.AvgLeafOcc = float64(leafEntries) / float64(s.LeafNodes*maxEntries)
	}
	if s.DirNodes > 0 {
		s.AvgDirOcc = float64(dirEntries) / float64(s.DirNodes*maxEntries)
	}
	return s
}
