package rtree

import (
	"iter"
	"slices"
	"sync/atomic"

	"cbb/internal/core"
	"cbb/internal/storage"
)

// This file implements the node directory: the one versioned place a tree
// keeps its nodes, each beside the writer's metadata about it, the clip
// record the paper keeps in its auxiliary table (Figure 4b) and, on a
// file-backed tree, the page that holds it (Figure 4a). It is two
// levels, a top array of pointers to fixed-size chunks of slots, indexed by
// node id. What a published version holds is never written again: the writer
// copies the top array before its first write after a publish, and a chunk
// (stamping it with its generation, as a cloned node is stamped) before its
// first write to it. A commit costs the chunks it touched and one top array
// of pointers, and publishing it stays one pointer store.

// A chunk holds 128 slots: a chunk copy is 6 KiB, and the top array of a
// 2M-object tree is a few KiB of pointers.
const (
	chunkBits  = 7
	chunkSlots = 1 << chunkBits
	chunkMask  = chunkSlots - 1
)

// slot is one node id's entry: the node; its clip record (nil without clip
// points); on a file-backed tree, the page it lives on (InvalidPage until its
// first flush); and what pages do not store — the parent and, for the Hilbert
// variant, the largest Hilbert value below the node. A fault installs a lazy
// version's node with a CAS; nothing else in a published slot is written.
type slot struct {
	node   atomic.Pointer[node]
	rec    core.Record
	page   storage.PageID
	lhv    uint64
	parent NodeID
}

// chunk is chunkSlots consecutive slots, stamped with the writer generation
// that created or copied it: a chunk born in an earlier generation may be
// shared with a published version.
type chunk struct {
	born  uint64
	slots [chunkSlots]slot
}

// clone copies the chunk for the writer generation gen.
func (c *chunk) clone(gen uint64) *chunk {
	d := &chunk{born: gen}
	for i := range c.slots {
		s, o := &d.slots[i], &c.slots[i]
		s.node.Store(o.node.Load())
		s.rec, s.page, s.lhv, s.parent = o.rec, o.page, o.lhv, o.parent
	}
	return d
}

// directory is the node directory of one version, or of the writer: the
// chunks covering ids [0, n).
type directory struct {
	chunks []*chunk
	n      int
}

// at returns id's slot; id must be in [0, n), which has reports.
func (d *directory) at(id NodeID) *slot { return &d.chunks[id>>chunkBits].slots[id&chunkMask] }
func (d *directory) has(id NodeID) bool { return uint32(id) < uint32(d.n) }

// node returns id's node, nil for an id outside the directory or a slot a
// lazy version has not faulted in yet.
func (d *directory) node(id NodeID) *node {
	if !d.has(id) {
		return nil
	}
	return d.at(id).node.Load()
}

// record returns id's clip record, nil for an id outside the directory.
func (d *directory) record(id NodeID) core.Record {
	if !d.has(id) {
		return nil
	}
	return d.at(id).rec
}

// records ranges over the ids that have clip records, ascending.
func (d *directory) records() iter.Seq2[NodeID, core.Record] {
	return func(yield func(NodeID, core.Record) bool) {
		for id := NodeID(0); int(id) < d.n; id++ {
			if rec := d.at(id).rec; len(rec) > 0 && !yield(id, rec) {
				return
			}
		}
	}
}

// sized returns a directory of n ids without nodes or parents, whose chunks
// are stamped gen.
func sized(n int, gen uint64) directory {
	d := directory{chunks: make([]*chunk, (n+chunkMask)>>chunkBits), n: n}
	for i := range d.chunks {
		c := &chunk{born: gen}
		for j := range c.slots {
			c.slots[j].parent = InvalidNode
		}
		d.chunks[i] = c
	}
	return d
}

// slotW returns the writer's slot for id, first copying the top array and the
// chunk when a published version may share them. A parallel build's workers
// call it only for chunks the writer already owns, so it merely reads.
func (t *Tree) slotW(id NodeID) *slot {
	if t.dirShared {
		t.dir.chunks = slices.Clone(t.dir.chunks)
		t.dirShared = false
	}
	c := t.dir.chunks[id>>chunkBits]
	if c.born != t.gen {
		c = c.clone(t.gen)
		t.dir.chunks[id>>chunkBits] = c
	}
	return &c.slots[id&chunkMask]
}

// grow adds one id at the end of the writer's directory and returns it; a
// new chunk goes into a fresh top array.
func (t *Tree) grow() NodeID {
	if t.dir.n == len(t.dir.chunks)<<chunkBits {
		t.dir.chunks, t.dirShared = append(slices.Clip(t.dir.chunks), &chunk{born: t.gen}), false
	}
	t.dir.n++
	return NodeID(t.dir.n - 1)
}

// parentOf and lhvOf read the parent and the Hilbert LHV the writer's
// directory records for id; setParent records a parent, copying id's chunk
// only when the parent actually changes.
func (t *Tree) parentOf(id NodeID) NodeID { return t.dir.at(id).parent }
func (t *Tree) lhvOf(id NodeID) uint64    { return t.dir.at(id).lhv }
func (t *Tree) setParent(id, p NodeID) {
	if t.dir.at(id).parent != p {
		t.slotW(id).parent = p
	}
}

// Record returns the clip record the writer's directory holds for the node
// (nil when it has none, or for an id outside the tree), and Records ranges
// over those it holds, in ascending id order. Writer-side.
func (t *Tree) Record(id NodeID) core.Record            { return t.dir.record(id) }
func (t *Tree) Records() iter.Seq2[NodeID, core.Record] { return t.dir.records() }

// SetRecord installs the node's clip record in the writer's directory (nil
// removes it) for the next publish: the one way a clip layer writes a record.
// A lazily opened tree must be hydrated first (Materialize). Writer-side.
func (t *Tree) SetRecord(id NodeID, rec core.Record) {
	if t.src != nil && !t.src.hydrated {
		panic("rtree: SetRecord on a file-backed tree not yet hydrated")
	}
	if t.dir.has(id) && (len(rec) > 0 || len(t.dir.at(id).rec) > 0) {
		s := t.slotW(id)
		s.rec = rec
		if s.parent != InvalidNode {
			t.clipsDirty = append(t.clipsDirty, s.parent)
		}
	}
}

// Record and Records are Tree.Record and Tree.Records at this version.
func (v *Version) Record(id NodeID) core.Record            { return v.dir.record(id) }
func (v *Version) Records() iter.Seq2[NodeID, core.Record] { return v.dir.records() }

// syncClips rebuilds, before a publish, the clip copy (node.clips) of every
// directory node in clipsDirty: a node the batch wrote, and the parent of a
// node the batch gave a record. Such a parent that the batch did not write is
// replaced, through slotW, by a shallow copy that keeps its birth generation:
// the clip copy is derived state that no page holds, so the next flush does
// not rewrite the parent. Every published copy is thus current.
func (t *Tree) syncClips() {
	dims := t.cfg.Dims
	if dims > clipMaxDims || len(t.clipsDirty) == 0 {
		t.clipsDirty = t.clipsDirty[:0]
		return
	}
	var prev directory
	if v := t.cur.Load(); v != nil {
		prev = v.dir
	}
	slices.Sort(t.clipsDirty)
	for _, id := range slices.Compact(t.clipsDirty) {
		n := t.dir.node(id)
		if n == nil || n.leaf || !n.hasPlanes(dims) {
			continue
		}
		if n.born != t.gen {
			c := *n
			n = &c
			t.slotW(id).node.Store(n)
		}
		n.clips = n.buildClips(dims, t.dir.record, prev.node(id), prev.record)
	}
	t.clipsDirty = t.clipsDirty[:0]
}
