package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"math"

	"cbb/internal/core"
	"cbb/internal/fanout"
	"cbb/internal/storage"
)

// This file implements the physical node layout of Figure 4a and tree
// persistence onto a storage.PageStore: a directory node page holds its own id,
// level and a list of <child MBB, child page> slots; a leaf page holds
// <object MBB, object id> slots. The encoding is little-endian and
// fixed-width per entry so the entry capacity per page is predictable, which
// is what determines M for a given page size in the paper's benchmark
// configuration.

const nodeHeaderBytes = 1 + 1 + 4 + 4 // leaf flag, level, id, entry count

// EntryBytes returns the encoded size of one entry for the given
// dimensionality: 2·dims float64 extents plus an 8-byte child/object
// reference.
func EntryBytes(dims int) int { return dims*16 + 8 }

// MaxEntriesForPage returns the largest node capacity M that fits a page of
// the given size for the given dimensionality — how the paper derives M from
// the 4 KiB page size.
func MaxEntriesForPage(pageSize, dims int) int {
	usable := pageSize - nodeHeaderBytes
	if usable <= 0 {
		return 0
	}
	return usable / EntryBytes(dims)
}

// PageBytesFor returns the encoded size of a full node page (the inverse of
// MaxEntriesForPage): the smallest page that holds a node with maxEntries
// entries in the given dimensionality. The snapshot writer uses it to pick a
// page size for trees whose configured capacity exceeds what a 4 KiB page
// holds.
func PageBytesFor(maxEntries, dims int) int {
	return nodeHeaderBytes + maxEntries*EntryBytes(dims)
}

// encodeNode serialises a node into the Figure 4a layout, which is the
// node's boxes and refs interleaved slot by slot.
func encodeNode(n *node, dims int) []byte {
	buf := make([]byte, 0, nodeHeaderBytes+n.count()*EntryBytes(dims))
	if n.leaf {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = append(buf, byte(n.level))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.id))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.count()))
	w := 2 * dims
	for i, ref := range n.refs {
		for _, v := range n.boxes[i*w : (i+1)*w] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ref))
	}
	return buf
}

// decodeNode parses a node page. It returns an error for malformed input.
func decodeNode(buf []byte, dims int) (*node, error) {
	if len(buf) < nodeHeaderBytes {
		return nil, errors.New("rtree: node page too short")
	}
	n := &node{}
	n.leaf = buf[0] == 1
	n.level = int32(buf[1])
	n.id = NodeID(binary.LittleEndian.Uint32(buf[2:6]))
	count := int(binary.LittleEndian.Uint32(buf[6:10]))
	want := nodeHeaderBytes + count*EntryBytes(dims)
	if len(buf) < want {
		return nil, fmt.Errorf("rtree: node page truncated: have %d bytes, want %d", len(buf), want)
	}
	n.readSlots(buf, nodeHeaderBytes, count, dims)
	n.syncDerived(dims)
	return n, nil
}

// readSlots decodes count raw <rect, ref> records — the slot layout
// encodeNode writes — from buf at off into fresh boxes and refs, and returns
// the offset just past them. The caller has checked that buf is long enough.
func (n *node) readSlots(buf []byte, off, count, dims int) int {
	n.boxes = make([]float64, count*2*dims)
	n.refs = make([]int64, count)
	b := 0
	for i := range n.refs {
		for end := b + 2*dims; b < end; b++ {
			n.boxes[b] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		ref := int64(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		if !n.leaf {
			ref = int64(NodeID(ref)) // child ids are 32 bits wide
		}
		n.refs[i] = ref
	}
	return off
}

// Save writes every node of the tree's last published version onto the page
// store in the given codec's layout, one page per node, and returns the map
// from node id to page id (the root's page is pages[RootID()]). It is used by
// the snapshot writer, the storage-overhead experiment, and persistence
// round-trip tests. Saving a file-backed tree faults every node in first.
//
// Nodes are encoded on GOMAXPROCS workers, a bounded window at a time
// (encodeWalk); the calling goroutine allocates and writes each window's
// pages in walk order, so page ids and bytes do not depend on the worker
// count, and memory does not grow with the tree.
func (t *Tree) Save(p storage.PageStore, codec PageCodec) (map[NodeID]storage.PageID, error) {
	v := t.cur.Load()
	if v.root == InvalidNode {
		return nil, errors.New("rtree: cannot save an empty tree")
	}
	pages := make(map[NodeID]storage.PageID)
	err := v.encodeWalk(t.cfg.Dims, codec, func(n *node, buf []byte) error {
		kind := storage.KindDirectory
		if n.leaf {
			kind = storage.KindLeaf
		}
		id, err := p.Allocate(kind)
		if err != nil {
			return err
		}
		pages[n.id] = id
		if err := p.Write(id, buf); err != nil {
			return fmt.Errorf("rtree: saving node %d: %w", n.id, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pages, nil
}

// encodeWindow is how many nodes encodeWalk encodes at a time, and
// encodeChunk how many of them a worker takes at once: a window's pages are
// at most encodeWindow node pages of memory, whatever the tree's size.
const encodeWindow, encodeChunk = 256, 8

// encodeWalk calls fn with every node of the version and its page in the
// given codec, in walk order, on the calling goroutine. The pages are encoded
// a window of nodes at a time through fanout on GOMAXPROCS workers, so what
// fn sees does not depend on the worker count. It stops at the first error —
// a fault's, an encoding's or fn's.
func (v *Version) encodeWalk(dims int, codec PageCodec, fn func(n *node, buf []byte) error) error {
	nodes := make([]*node, 0, encodeWindow)
	bufs, errs := make([][]byte, encodeWindow), make([]error, encodeWindow)
	flush := func() error {
		fanout.ForEachChunk(len(nodes), 0, encodeChunk, func(_, start, end int) {
			for i := start; i < end; i++ {
				bufs[i], errs[i] = encodeNodeCodec(nodes[i], dims, codec)
			}
		})
		for i, n := range nodes {
			if errs[i] != nil {
				return fmt.Errorf("rtree: encoding node %d: %w", n.id, errs[i])
			}
			if err := fn(n, bufs[i]); err != nil {
				return err
			}
		}
		nodes = nodes[:0]
		return nil
	}
	err := v.walk(func(n *node) error {
		if nodes = append(nodes, n); len(nodes) == encodeWindow {
			return flush()
		}
		return nil
	})
	if err == nil && len(nodes) > 0 {
		err = flush()
	}
	return err
}

// walk calls fn for every node of the version, depth first, each node before
// its children and the children of a node in reverse slot order, and stops
// at the first error — fn's or a fault's.
func (v *Version) walk(fn func(*node) error) error {
	stack := []NodeID{v.root}
	for len(stack) > 0 && v.root != InvalidNode {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := v.node(id)
		if err == nil {
			err = fn(n)
		}
		if err != nil {
			return err
		}
		for i := 0; i < n.count() && !n.leaf; i++ {
			stack = append(stack, n.child(i))
		}
	}
	return nil
}

// Load reconstructs, fully in memory, a tree previously written with Save in
// the same codec; the configuration must match the one the original tree was
// built with. It is the lazy open followed by hydrate with the store binding
// dropped: the result is an ordinary in-memory tree (not FileBacked, read
// lock-free, no store retained) whose object count and height
// are what the pages hold — callers with a header to honour compare them
// (snapshot.LoadTree). recs are the nodes' clip records, as OpenPaged takes
// them. A tree loaded from v2 pages carries conservatively expanded directory
// rects, so Validate checks containment instead of equality; it remains fully
// usable (queries are admissible, mutations re-tighten rects as they touch
// them).
func Load(cfg Config, store storage.PageStore, pages map[NodeID]storage.PageID, root NodeID, codec PageCodec, recs map[NodeID]core.Record) (*Tree, error) {
	if root == InvalidNode {
		return nil, errors.New("rtree: cannot load an empty tree")
	}
	// Size and height are what hydrate is about to count; the open only needs
	// plausible stand-ins.
	t, err := OpenPaged(cfg, store, pages, root, 0, 1, true, codec, recs)
	if err != nil {
		return nil, err
	}
	if t.size, t.height, err = t.hydrate(); err != nil {
		return nil, err
	}
	// The resident tree replaces the lazy version no reader saw. Its slots
	// keep the page ids of the dropped store; without a store nothing reads
	// or frees them.
	t.src, t.lazyV = nil, nil
	t.publishAt(t.cur.Load().epoch)
	return t, nil
}

// maxNodeID returns the largest node id in the page map, rejecting maps so
// sparse that sizing the directory by the maximum id would be an allocation
// hazard (a defence against corrupt or adversarial snapshots).
func maxNodeID(pages map[NodeID]storage.PageID) (NodeID, error) {
	maxID := NodeID(-1)
	for nid := range pages {
		if nid < 0 {
			return 0, fmt.Errorf("rtree: negative node id %d in page map", nid)
		}
		if nid > maxID {
			maxID = nid
		}
	}
	// Deletions can legitimately leave the directory sparse (freed ids are
	// only reused by later inserts), so the relative bound gets a generous
	// absolute floor: a 2^20-id directory of empty slots costs 48 MiB, cheap
	// enough to always allow, while still rejecting snapshots whose ids
	// would force a multi-gigabyte allocation.
	limit := 32*len(pages) + 1024
	if limit < 1<<20 {
		limit = 1 << 20
	}
	if int(maxID) >= limit {
		return 0, fmt.Errorf("rtree: implausibly sparse node ids (max %d for %d nodes)", maxID, len(pages))
	}
	return maxID, nil
}

// OpenPaged constructs a file-backed tree over pages previously written with
// Save in the given codec: nodes are decoded from the page store on first
// access (through the tree's buffer pool and I/O counters, if attached)
// instead of being brought in up front, so a snapshot of any size opens in
// constant time. size and height come from the snapshot header because they
// cannot be known without reading every page; hydrate holds the pages to
// them. Concurrent readers are safe, exactly as for an in-memory tree.
//
// With readonly false the tree accepts Insert, Delete, and BulkLoad: the
// first mutation hydrates the tree (parent pointers are not stored in the
// page layout), and FlushDirty writes the nodes born since the open or the
// last flush back to the store. With readonly true mutations return
// ErrReadOnly. Compressed (v2) pages only open read-only: they are sized to
// the encoded bytes at write time, so a re-encoded dirty node has no
// guarantee of fitting its slot; writable trees use v1.
// recs are the nodes' clip records: the open's lazy version, the tree's only
// one, carries them (records change only on a hydrated tree).
func OpenPaged(cfg Config, store storage.PageStore, pages map[NodeID]storage.PageID, root NodeID, size, height int, readonly bool, codec PageCodec, recs map[NodeID]core.Record) (*Tree, error) {
	switch {
	case store == nil:
		return nil, errors.New("rtree: OpenPaged requires a page store")
	case codec != CodecV1 && codec != CodecV2:
		return nil, fmt.Errorf("rtree: unknown page codec %d", codec)
	case codec == CodecV2 && !readonly:
		return nil, errors.New("rtree: v2 (compressed) snapshots are read-only; transcode to v1 for a writable open")
	}
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	t.src = &pageSource{store: store, readonly: readonly, codec: codec}
	t.conservative = codec == CodecV2
	if root == InvalidNode {
		if len(pages) != 0 || size != 0 || height != 0 {
			return nil, errors.New("rtree: snapshot has pages but no root")
		}
		// An empty tree has nothing to hydrate; it is born mutable.
		t.src.hydrated = true
		t.publish()
		t.src.flushed = t.gen
		return t, nil
	}
	if _, ok := pages[root]; !ok {
		return nil, fmt.Errorf("rtree: root node %d has no page in the snapshot", root)
	}
	if size < 0 || height < 1 {
		return nil, fmt.Errorf("rtree: implausible snapshot size %d / height %d", size, height)
	}
	maxID, err := maxNodeID(pages)
	if err != nil {
		return nil, err
	}
	t.dir = sized(int(maxID)+1, t.gen)
	for id, pid := range pages {
		t.dir.at(id).page = pid
	}
	for id, rec := range recs {
		if _, ok := pages[id]; ok {
			t.dir.at(id).rec = rec
		}
	}
	t.root = root
	t.size = size
	t.height = height
	// Publish the initial (lazy) version: readers fault nodes in on demand
	// from their slots' pages until the first mutation hydrates the tree.
	// Every node on the store is as written: none is born after the flush
	// mark.
	t.publish()
	t.src.flushed = t.gen
	return t, nil
}

// FlushDirty writes every node born since the last flush back to the tree's
// page store: each is re-encoded onto its existing page, a new node gets a
// page allocated (reusing the store's free-page list), in ascending id order,
// and pages of dissolved nodes are released. It returns the node→page map
// of the whole tree and a commit callback.
//
// FlushDirty is transactional on the tree side: the flush mark, the freed
// list, and the slots' page ids are not touched until the caller invokes
// commit — which it must do only once every dependent write (node index,
// clip table, superblock) has also succeeded. commit publishes the new page
// ids under the current epoch, so a later RollbackBatch keeps them. If
// anything fails before that, the tree's bookkeeping still describes the
// pre-flush state, and the page-store side effects are rolled back by
// discarding the store's journal — so a failed flush can simply be retried.
// The store itself decides durability: a journaled FilePager makes the whole
// batch atomic on its next commit.
func (t *Tree) FlushDirty() (map[NodeID]storage.PageID, func(), error) {
	if t.src == nil {
		return nil, nil, errors.New("rtree: FlushDirty requires a file-backed tree")
	}
	if t.src.readonly {
		return nil, nil, ErrReadOnly
	}
	if t.inBatch {
		// A mid-batch flush would persist (and make undo of) uncommitted
		// state; the batch must Commit or Rollback first.
		return nil, nil, errors.New("rtree: FlushDirty inside an open batch")
	}
	src := t.src
	// Release pages of dissolved nodes first so their slots are available
	// for reuse by the allocations below. A page is freed only after the
	// first mutation hydrated the tree, so no version — however old a view
	// holds it — reads a page again (see version.go).
	for _, pid := range src.freed {
		if err := src.store.Free(pid); err != nil {
			return nil, nil, fmt.Errorf("rtree: releasing page %d: %w", pid, err)
		}
	}
	pages := make(map[NodeID]storage.PageID)
	for id := NodeID(0); int(id) < t.dir.n; id++ {
		if pid := t.dir.at(id).page; pid != storage.InvalidPage {
			pages[id] = pid
		}
	}
	// fresh lists the nodes given a page here; the slots get it at commit.
	var fresh []NodeID
	for id := range t.unflushed() {
		n, pid := t.dir.at(id).node.Load(), pages[id]
		if pid == storage.InvalidPage {
			kind := storage.KindDirectory
			if n.leaf {
				kind = storage.KindLeaf
			}
			var err error
			if pid, err = src.store.Allocate(kind); err != nil {
				return nil, nil, fmt.Errorf("rtree: allocating page for node %d: %w", id, err)
			}
			pages[id] = pid
			fresh = append(fresh, id)
		}
		buf, err := encodeNodeCodec(n, t.cfg.Dims, src.codec)
		if err == nil {
			err = src.store.Write(pid, buf)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("rtree: writing node %d to page %d: %w", id, pid, err)
		}
	}
	commit := func() {
		for _, id := range fresh {
			t.slotW(id).page = pages[id]
		}
		if len(fresh) > 0 {
			t.publishAt(t.cur.Load().epoch)
		}
		src.flushed = t.gen
		src.freed = nil
	}
	return pages, commit, nil
}

// unflushed ranges, ascending, over the live nodes the next FlushDirty
// writes: those born in or after the writer generation of the last flush.
// Such a node sits in a chunk copied since then, so older chunks are skipped
// whole; an id on the free list holds freeNode's placeholder, not a node.
func (t *Tree) unflushed() iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		var free map[NodeID]bool
		for i, c := range t.dir.chunks {
			if c.born < t.src.flushed {
				continue
			}
			for j := range min(chunkSlots, t.dir.n-i<<chunkBits) {
				if n := c.slots[j].node.Load(); n == nil || n.born < t.src.flushed {
					continue
				}
				id := NodeID(i<<chunkBits | j)
				if free == nil {
					free = make(map[NodeID]bool, len(t.free))
					for _, f := range t.free {
						free[f] = true
					}
				}
				if !free[id] && !yield(id) {
					return
				}
			}
		}
	}
}

// Materialize makes a file-backed tree fully resident and verifies it: every
// page is brought in by hydrate, and the object count and height the pages
// hold must be the ones the tree was opened with. It is a no-op for in-memory
// trees and for trees already hydrated. Validate and the first mutation of a
// writable tree (ensureMutable) go through it; callers can also use it to
// warm a freshly opened tree. It is a writer-side operation: readers may run
// beside it, mutations may not.
func (t *Tree) Materialize() error {
	src := t.src
	if src == nil || src.hydrated {
		return nil
	}
	objects, height, err := t.hydrate()
	if err != nil {
		return err
	}
	if objects != t.size || height != t.height {
		return fmt.Errorf("rtree: header claims %d objects and height %d, pages hold %d and %d", t.size, t.height, objects, height)
	}
	// The lazy version holds no parent or LHV; the writer's directory does, and
	// replaces it under the same epoch, so RollbackBatch always gets them back.
	src.hydrated, t.lazyV = true, nil
	t.publishAt(t.cur.Load().epoch)
	return nil
}

// hydrate brings every page of a lazily opened tree in — the only way a tree
// becomes fully resident (Materialize for an opened tree, Load for an eager
// one). Each slot with a page has its node faulted into the lazy version's
// directory (fault), so it is full before any page can be rewritten. The
// writer then takes a private copy of the directory, stamped generation 0 so
// its first batch copies what it writes, and rebuilds there only what pages
// do not store: parents (each child resident) and Hilbert LHVs. It returns the object count and height
// the pages hold; the caller decides what they are checked against.
func (t *Tree) hydrate() (objects, height int, err error) {
	v := t.lazyV
	for id := NodeID(0); int(id) < v.dir.n; id++ {
		if v.dir.at(id).page == storage.InvalidPage {
			continue
		}
		n, err := v.node(id)
		if err != nil {
			return 0, 0, err
		}
		if n.leaf {
			objects += n.count()
		}
		height = max(height, int(n.level)+1)
	}
	// Until now the writer's directory was the lazy version's, full at last.
	d := directory{chunks: make([]*chunk, len(v.dir.chunks)), n: v.dir.n}
	for i, c := range v.dir.chunks {
		d.chunks[i] = c.clone(0)
	}
	for id := NodeID(0); int(id) < d.n; id++ {
		n := d.at(id).node.Load()
		if n == nil || n.leaf {
			continue
		}
		for _, c := range n.refs {
			if !d.has(NodeID(c)) || d.at(NodeID(c)).node.Load() == nil {
				return 0, 0, fmt.Errorf("rtree: node %d references missing child %d", id, c)
			}
			d.at(NodeID(c)).parent = id
		}
	}
	t.dir, t.dirShared = d, false
	if t.curve != nil {
		for level := 0; level < height; level++ {
			for id := NodeID(0); int(id) < d.n; id++ {
				if n := d.at(id).node.Load(); n != nil && int(n.level) == level {
					d.at(id).lhv = t.hilbertLHV(n)
				}
			}
		}
	}
	return objects, height, nil
}
