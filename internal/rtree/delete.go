package rtree

import (
	"fmt"

	"cbb/internal/geom"
)

// DeleteTrace reports the structural changes of a deletion: nodes whose MBB
// shrank, nodes that were dissolved (condensed away), and how many entries
// had to be re-inserted. The clipped layer handles deletions lazily (clip
// points stay valid when space only becomes emptier), so it consults the
// trace only for dissolved nodes and MBB changes.
type DeleteTrace struct {
	// Found reports whether the object was present.
	Found bool
	// Leaf is the leaf the object was removed from (InvalidNode when not
	// found).
	Leaf NodeID
	// MBBChanged lists surviving nodes whose MBB changed.
	MBBChanged []NodeID
	// Removed lists node ids dissolved by the condense step.
	Removed []NodeID
	// Placements lists (node, rectangle) pairs that received entries
	// re-inserted after condensing; the clipped layer validity-checks them.
	Placements []Placement
	// Reinserted counts entries re-inserted after condensing.
	Reinserted int
}

func (tr *DeleteTrace) markMBBChanged(id NodeID) {
	for _, v := range tr.MBBChanged {
		if v == id {
			return
		}
	}
	tr.MBBChanged = append(tr.MBBChanged, id)
}

// Delete removes the object with the given id and rectangle. Both must match
// an indexed entry exactly (the usual R-tree contract). It returns a trace
// and whether the object was found. On a writable file-backed tree the
// mutation happens in the node arena and is written back by the next
// FlushDirty; a read-only tree returns ErrReadOnly.
func (t *Tree) Delete(r geom.Rect, obj ObjectID) (trace *DeleteTrace, err error) {
	if err := t.ensureMutable(); err != nil {
		return nil, err
	}
	if !r.Valid() || r.Dims() != t.cfg.Dims {
		return nil, fmt.Errorf("rtree: invalid rectangle %v for a %d-dimensional tree", r, t.cfg.Dims)
	}
	t.beginMutation()
	defer func() { t.autoCommit(err) }()
	defer recoverFault(&err)
	trace = &DeleteTrace{Leaf: InvalidNode}
	if t.root == InvalidNode {
		return trace, nil
	}
	rootBefore := t.mustNode(t.root).mbb()
	leaf, idx := t.findLeaf(t.mustNode(t.root), r, obj)
	if leaf == nil {
		return trace, nil
	}
	trace.Found = true
	trace.Leaf = leaf.id
	leaf = t.mutable(leaf)
	leaf.removeAt(idx, t.cfg.Dims)
	t.touch(leaf)
	t.size--
	t.counter.Write(1)
	t.condense(leaf, trace)
	// The root has no parent entry, so a shrink of its MBB is not caught by
	// the condense pass; record it explicitly (the clipped layer must
	// recompute clip points whenever a node's MBB changes).
	if t.root != InvalidNode {
		if !t.mustNode(t.root).mbb().Equal(rootBefore) {
			trace.markMBBChanged(t.root)
		}
	}

	// Shrink the tree if the root became a lone directory entry or empty.
	root := t.mustNode(t.root)
	for !root.leaf && root.count() == 1 {
		child := t.mustNode(root.child(0))
		child.parent = InvalidNode
		trace.Removed = append(trace.Removed, root.id)
		t.freeNode(root.id)
		t.root = child.id
		t.height = child.level + 1
		root = child
	}
	if root.leaf && root.count() == 0 && t.size == 0 {
		trace.Removed = append(trace.Removed, root.id)
		t.freeNode(root.id)
		t.root = InvalidNode
		t.height = 0
	}
	return trace, nil
}

// findLeaf locates the leaf containing an exact (rect, object) entry.
func (t *Tree) findLeaf(n *node, r geom.Rect, obj ObjectID) (*node, int) {
	dims := t.cfg.Dims
	if n.leaf {
		for i := range n.refs {
			if n.object(i) == obj && n.rect(i, dims).Equal(r) {
				return n, i
			}
		}
		return nil, -1
	}
	for i := range n.refs {
		if ri := n.rect(i, dims); ri.ContainsRect(r) || ri.Intersects(r) {
			if leaf, idx := t.findLeaf(t.mustNode(n.child(i)), r, obj); leaf != nil {
				return leaf, idx
			}
		}
	}
	return nil, -1
}

// condense walks from a shrunken leaf to the root, dissolving under-full
// nodes and collecting their entries for re-insertion, then re-inserts them
// at their original level (Guttman's CondenseTree).
func (t *Tree) condense(n *node, trace *DeleteTrace) {
	type orphan struct {
		entry Entry
		level int
	}
	var orphans []orphan
	cur := n
	for cur.id != t.root {
		parent := t.mustNode(cur.parent)
		idx := t.childIndex(parent, cur.id)
		if cur.count() < t.cfg.MinEntries {
			// Dissolve the node: remove it from the parent and queue its
			// entries for re-insertion.
			parent = t.mutable(parent)
			parent.removeAt(idx, t.cfg.Dims)
			t.touch(parent)
			for _, e := range cur.entries(t.cfg.Dims) {
				orphans = append(orphans, orphan{entry: e, level: cur.level})
			}
			trace.Removed = append(trace.Removed, cur.id)
			t.freeNode(cur.id)
		} else {
			newMBB := cur.mbb()
			if !parent.rect(idx, t.cfg.Dims).Equal(newMBB) {
				parent = t.mutable(parent)
				parent.setRect(idx, newMBB, t.cfg.Dims)
				t.touch(parent)
				trace.markMBBChanged(cur.id)
				t.counter.Write(1)
			}
			t.updateHilbertLHV(cur)
		}
		cur = parent
	}
	t.updateHilbertLHV(cur)

	// Re-insert orphaned entries at their original levels. Each orphan is a
	// fresh insertion for the purposes of the once-per-level R* overflow
	// treatment, so the pooled marks open a new scope per orphan.
	for _, o := range orphans {
		itrace := &InsertTrace{Leaf: InvalidNode}
		t.ovMarks.begin()
		t.insertAtLevel(o.entry, o.level, itrace, &t.ovMarks, false)
		trace.Reinserted++
		mergeTraces(trace, itrace)
	}
}

// mergeTraces folds the node-change information of an insertion performed
// during condensing into the deletion trace.
func mergeTraces(dt *DeleteTrace, it *InsertTrace) {
	for _, id := range it.MBBChanged {
		dt.markMBBChanged(id)
	}
	for _, id := range it.Split {
		dt.markMBBChanged(id)
	}
	for _, id := range it.Created {
		dt.markMBBChanged(id)
	}
	dt.Placements = append(dt.Placements, it.Placements...)
}
