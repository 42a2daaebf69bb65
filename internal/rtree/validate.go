package rtree

import (
	"fmt"
	"math"

	"cbb/internal/geom"
)

// Validate checks the structural invariants of the tree and returns the
// first violation found, or nil. It is used by tests and by the cbbinspect
// tool; it never charges I/O.
//
// Invariants checked:
//   - every node's entry count is within [MinEntries, MaxEntries], except
//     the root (which may hold fewer) and single-leaf trees;
//   - directory entries' rectangles equal the MBB of the referenced child;
//   - parent pointers are consistent with directory entries;
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
	// A file-backed tree must be fully loaded first: validation needs parent
	// pointers, which the page layout does not store.
	if err := t.Materialize(); err != nil {
		return err
	}
	root := t.nodes[t.root]
	if root.parent != InvalidNode {
		return fmt.Errorf("rtree: root %d has parent %d", root.id, root.parent)
	}
	if root.level != t.height-1 {
		return fmt.Errorf("rtree: root level %d does not match height %d", root.level, t.height)
	}
	objects := 0
	var check func(id NodeID) error
	check = func(id NodeID) error {
		n := t.nodes[id]
		if n == nil {
			return fmt.Errorf("rtree: node %d is nil", id)
		}
		if len(n.entries) > t.cfg.MaxEntries {
			return fmt.Errorf("rtree: node %d has %d entries (max %d)", id, len(n.entries), t.cfg.MaxEntries)
		}
		if err := t.checkBoxes(n); err != nil {
			return err
		}
		if err := t.checkPlanes(n); err != nil {
			return err
		}
		if id != t.root && len(n.entries) < t.cfg.MinEntries {
			return fmt.Errorf("rtree: node %d has %d entries (min %d)", id, len(n.entries), t.cfg.MinEntries)
		}
		if n.leaf {
			if n.level != 0 {
				return fmt.Errorf("rtree: leaf %d at level %d", id, n.level)
			}
			objects += len(n.entries)
			return nil
		}
		for i := range n.entries {
			e := &n.entries[i]
			child := t.nodes[e.Child]
			if child == nil {
				return fmt.Errorf("rtree: node %d references missing child %d", id, e.Child)
			}
			if child.parent != id {
				return fmt.Errorf("rtree: child %d has parent %d, expected %d", child.id, child.parent, id)
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

// checkBoxes verifies that the node's flat coordinate mirror matches its
// entry rectangles exactly — the invariant the query hot path relies on.
func (t *Tree) checkBoxes(n *node) error {
	dims := t.cfg.Dims
	if len(n.boxes) != len(n.entries)*2*dims {
		return fmt.Errorf("rtree: node %d has %d mirror coordinates for %d entries (want %d)",
			n.id, len(n.boxes), len(n.entries), len(n.entries)*2*dims)
	}
	off := 0
	for i := range n.entries {
		r := &n.entries[i].Rect
		for d := 0; d < dims; d++ {
			if n.boxes[off+d] != r.Lo[d] || n.boxes[off+dims+d] != r.Hi[d] {
				return fmt.Errorf("rtree: node %d entry %d mirror out of sync with rect %v", n.id, i, *r)
			}
		}
		off += 2 * dims
	}
	return nil
}

// checkPlanes verifies the node's quantised SoA filter layer against the
// exact mirror: the planes must be conservative (each grid bound decodes to
// at most the exact lower / at least the exact upper bound — the property
// the scan kernels rely on to never miss a hit), and, wherever the planes
// were computed from exact rects (every node except directories adopted
// verbatim from a compressed v2 page), they must be exactly the
// qlower/qupper quantisation of the mirror against a qmbb that is the
// mirror's true MBB.
func (t *Tree) checkPlanes(n *node) error {
	dims := t.cfg.Dims
	count := len(n.entries)
	if !n.hasPlanes(dims) {
		return fmt.Errorf("rtree: node %d has %d plane words and %d MBB extents for %d entries (want %d and %d)",
			n.id, len(n.qplanes), len(n.qmbb), count, 2*dims*planeWords(count), 2*dims)
	}
	if count == 0 {
		return nil
	}
	// Directory nodes of a v2-loaded tree carry the page's stored grid
	// coordinates and MBB; their decoded-rect mirror sits outward of both, so
	// only the conservativeness half applies to them.
	adopted := t.conservative && !n.leaf
	for d := 0; d < dims; d++ {
		lo, hi := n.qmbb[d], n.qmbb[dims+d]
		if !adopted {
			minLo := math.Inf(1)
			maxHi := math.Inf(-1)
			for off := 0; off < len(n.boxes); off += 2 * dims {
				if v := n.boxes[off+d]; v < minLo {
					minLo = v
				}
				if v := n.boxes[off+dims+d]; v > maxHi {
					maxHi = v
				}
			}
			if lo != minLo || hi != maxHi {
				return fmt.Errorf("rtree: node %d plane MBB [%v, %v] in dim %d does not match mirror MBB [%v, %v]",
					n.id, lo, hi, d, minLo, maxHi)
			}
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
	if v.root == InvalidNode {
		return s
	}
	var leafEntries, dirEntries int
	stack := []NodeID{v.root}
	for len(stack) > 0 {
		n := v.node(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		if n == nil {
			continue
		}
		s.PlaneBytes += n.planeBytes()
		if n.leaf {
			s.LeafNodes++
			leafEntries += len(n.entries)
			continue
		}
		s.DirNodes++
		dirEntries += len(n.entries)
		for i := range n.entries {
			stack = append(stack, n.entries[i].Child)
		}
	}
	maxEntries := v.tree.cfg.MaxEntries
	if s.LeafNodes > 0 {
		s.AvgLeafOcc = float64(leafEntries) / float64(s.LeafNodes*maxEntries)
	}
	if s.DirNodes > 0 {
		s.AvgDirOcc = float64(dirEntries) / float64(s.DirNodes*maxEntries)
	}
	return s
}
