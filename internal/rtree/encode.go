package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"

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
	n := &node{parent: InvalidNode}
	n.leaf = buf[0] == 1
	n.level = int(buf[1])
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

// Save writes every node of the tree onto the page store in the given codec's
// layout, one page per node, and returns the map from node id to page id
// (the root's page is pages[RootID()]). It is used by the snapshot writer,
// the storage-overhead experiment, and persistence round-trip tests. Saving
// a file-backed tree faults every node in first.
func (t *Tree) Save(p storage.PageStore, codec PageCodec) (map[NodeID]storage.PageID, error) {
	if t.root == InvalidNode {
		return nil, errors.New("rtree: cannot save an empty tree")
	}
	pages := make(map[NodeID]storage.PageID)
	var firstErr error
	t.Walk(func(info NodeInfo) {
		if firstErr != nil {
			return
		}
		kind := storage.KindDirectory
		if info.Leaf {
			kind = storage.KindLeaf
		}
		id, err := p.Allocate(kind)
		if err != nil {
			firstErr = err
			return
		}
		pages[info.ID] = id
		buf, err := encodeNodeCodec(t.node(info.ID), t.cfg.Dims, codec)
		if err != nil {
			firstErr = err
			return
		}
		if err := p.Write(id, buf); err != nil {
			firstErr = fmt.Errorf("rtree: saving node %d: %w", info.ID, err)
		}
	})
	if firstErr == nil {
		firstErr = t.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return pages, nil
}

// Load reconstructs, fully in memory, a tree previously written with Save in
// the same codec; the configuration must match the one the original tree was
// built with. It is the lazy open followed by hydrate with the store binding
// dropped: the result is an ordinary in-memory tree (not FileBacked, read
// lock-free, no page map or store retained) whose object count and height
// are what the pages hold — callers with a header to honour compare them
// (snapshot.LoadTree). A tree loaded from v2 pages carries conservatively
// expanded directory rects, so Validate checks containment instead of
// equality; it remains fully usable (queries are admissible, mutations
// re-tighten rects as they touch them).
func Load(cfg Config, store storage.PageStore, pages map[NodeID]storage.PageID, root NodeID, codec PageCodec) (*Tree, error) {
	if root == InvalidNode {
		return nil, errors.New("rtree: cannot load an empty tree")
	}
	// Size and height are what hydrate is about to count; the open only needs
	// plausible stand-ins.
	t, err := OpenPaged(cfg, store, pages, root, 0, 1, true, codec)
	if err != nil {
		return nil, err
	}
	if t.size, t.height, err = t.hydrate(); err != nil {
		return nil, err
	}
	// No reader ever saw the lazy version the open published; the resident
	// tree is published in its stead, under the same epoch.
	t.src, t.lazyV = nil, nil
	t.epoch--
	t.publish()
	return t, nil
}

// maxNodeID returns the largest node id in the page map, rejecting maps so
// sparse that sizing the arena by the maximum id would be an allocation
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
	// Deletions can legitimately leave the arena sparse (freed ids are only
	// reused by later inserts), so the relative bound gets a generous
	// absolute floor: a 2^20-entry arena of nil pointers costs 8 MiB, cheap
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
// page layout), mutated nodes accumulate in the dirty set, and FlushDirty
// writes them back to the store. With readonly true mutations return
// ErrReadOnly. Compressed (v2) pages only open read-only: they are sized to
// the encoded bytes at write time, so a re-encoded dirty node has no
// guarantee of fitting its slot; writable trees use v1.
func OpenPaged(cfg Config, store storage.PageStore, pages map[NodeID]storage.PageID, root NodeID, size, height int, readonly bool, codec PageCodec) (*Tree, error) {
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
	t.src = &pageSource{store: store, pages: pages, readonly: readonly, codec: codec, dirty: make(map[NodeID]struct{})}
	t.conservative = codec == CodecV2
	if root == InvalidNode {
		if len(pages) != 0 || size != 0 || height != 0 {
			return nil, errors.New("rtree: snapshot has pages but no root")
		}
		// An empty tree has nothing to hydrate; it is born mutable.
		t.src.hydrated = true
		t.publish()
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
	t.nodes = make([]*node, maxID+1)
	t.root = root
	t.size = size
	t.height = height
	// Publish the initial (lazy) version: readers fault nodes in on demand
	// from this epoch's page map until the first mutation hydrates the tree.
	t.publish()
	return t, nil
}

// AttachStore binds a freshly built (or still empty) in-memory tree to a
// page store as its write-back target: the tree becomes file-backed and
// writable, every current node is considered dirty, and the next FlushDirty
// writes the whole tree. pages maps nodes that already live on the store
// (nil when none do, e.g. for a tree created over an empty store).
func (t *Tree) AttachStore(store storage.PageStore, pages map[NodeID]storage.PageID) error {
	if store == nil {
		return errors.New("rtree: AttachStore requires a page store")
	}
	if t.src != nil {
		return errors.New("rtree: tree is already file-backed")
	}
	if pages == nil {
		pages = make(map[NodeID]storage.PageID)
	}
	src := &pageSource{store: store, pages: pages, hydrated: true, codec: CodecV1, dirty: make(map[NodeID]struct{})}
	t.src = src
	t.Walk(func(info NodeInfo) {
		if _, ok := pages[info.ID]; !ok {
			src.dirty[info.ID] = struct{}{}
		}
	})
	return nil
}

// FlushDirty writes every node mutated since the last flush back to the
// tree's page store: dirty nodes are re-encoded onto their existing pages,
// new nodes get pages allocated (reusing the store's free-page list), and
// pages of dissolved nodes are released. It returns the updated node→page map
// and a commit callback.
//
// FlushDirty is transactional on the tree side: the dirty set, the freed
// list, and the live page map are not touched until the caller invokes
// commit — which it must do only once every dependent write (node index,
// clip table, superblock) has also succeeded. If anything fails before
// that, the tree's bookkeeping still describes the pre-flush state, and the
// page-store side effects are rolled back by discarding the store's journal
// — so a failed flush can simply be retried. The store itself decides
// durability: a journaled FilePager makes the whole batch atomic on its
// next commit.
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
	// for reuse by the allocations below — but only pages no pinned read
	// view can still reference: a page freed by the batch that committed
	// epoch E stays on the deferred list while any pinned version is older
	// than E (epoch-based reclamation; see version.go). Retained pages are
	// retried on the next flush.
	minPinned := t.minPinnedEpoch()
	var deferred []freedPage
	for _, fp := range src.freed {
		if fp.epoch > minPinned {
			deferred = append(deferred, fp)
			continue
		}
		if err := src.store.Free(fp.page); err != nil {
			return nil, nil, fmt.Errorf("rtree: releasing page %d: %w", fp.page, err)
		}
	}
	ids := make([]NodeID, 0, len(src.dirty))
	for id := range src.dirty {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Work on a copy of the page map so a failure leaves src.pages intact.
	pages := make(map[NodeID]storage.PageID, len(src.pages)+len(ids))
	for id, pid := range src.pages {
		pages[id] = pid
	}
	for _, id := range ids {
		n := t.node(id)
		if n == nil {
			return nil, nil, fmt.Errorf("rtree: dirty node %d does not exist", id)
		}
		pid, ok := pages[id]
		if !ok {
			kind := storage.KindDirectory
			if n.leaf {
				kind = storage.KindLeaf
			}
			var err error
			pid, err = src.store.Allocate(kind)
			if err != nil {
				return nil, nil, fmt.Errorf("rtree: allocating page for node %d: %w", id, err)
			}
			pages[id] = pid
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
		src.pages = pages
		src.dirty = make(map[NodeID]struct{})
		src.freed = deferred
	}
	return pages, commit, nil
}

// ReleaseFreedPages unconditionally releases every deferred freed page to
// the page store, returning how many it released. It is the close-time
// companion of FlushDirty's epoch-gated release: any pinned view that still
// exists is necessarily hydrated (a page can only be freed after the first
// mutation hydrated the whole tree), so it will never read the file again
// and the pages are safe to recycle. Without this, pages whose release was
// deferred past the final flush would stay marked in-use on disk forever —
// referenced by nothing, and flagged by the page-accounting audit.
func (t *Tree) ReleaseFreedPages() (int, error) {
	if t.src == nil || t.src.readonly {
		return 0, nil
	}
	released := 0
	for _, fp := range t.src.freed {
		if err := t.src.store.Free(fp.page); err != nil {
			t.src.freed = t.src.freed[released:]
			return released, err
		}
		released++
	}
	t.src.freed = nil
	return released, nil
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
	if !src.readonly {
		// The lazy version published at open keeps the original page map; the
		// writer takes a private copy so freeNode and FlushDirty never mutate
		// a map a concurrent lazy reader might still consult while faulting.
		src.pages = maps.Clone(src.pages)
	}
	src.hydrated = true
	return nil
}

// hydrate brings every page of a lazily opened tree into the arena — the
// only way a tree becomes fully resident, whoever asks (Materialize for an
// opened tree, Load for an eager one). Each id of the page map is faulted in
// through the tree's codec (fault: unreadable page, decode error, or a page
// whose stored id differs from its index entry → error), every directory
// slot must name a resident child, and what the page layout does not store
// is rebuilt: parent pointers and the Hilbert LHVs. It returns the object
// count and height the pages hold; the caller decides what they are checked
// against. Readers may fault the same version concurrently: parents and LHVs
// are writer-private metadata the read paths never consult.
func (t *Tree) hydrate() (objects, height int, err error) {
	v := t.lazyV
	for id := range v.pages {
		n, err := t.lazyNode(v, id)
		if err != nil {
			return 0, 0, err
		}
		if n.leaf {
			objects += n.count()
		}
		height = max(height, n.level+1)
	}
	t.arenaMu.Lock()
	err = t.fixParentsLocked()
	t.arenaMu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	t.recomputeHilbertLHVs(height)
	return objects, height, nil
}
