// Package snapshot defines the versioned, checksummed single-file snapshot
// format of the persistence subsystem. A snapshot is a page file (the byte
// format of internal/storage's FilePager) whose first page is a superblock
// describing the indexed structure — dimensionality, R-tree variant and
// capacity, clipping parameters, root node — followed by the tree's node
// pages in the Figure 4a layout, a node-id→page-id index, and the Figure 4b
// clip table, all written with the existing encoders.
//
// The same snapshot can be consumed two ways: opened lazily so that queries
// run directly against the stored pages through a page store, the buffer
// pool, and the usual I/O counters (OpenTree), or loaded into an in-memory
// tree (LoadTree) — which is that same open hydrated at once (rtree.Load), so
// a page set is accepted or rejected identically either way. Every layer
// validates on decode: the page container checks magic, version, and
// per-page CRC-32C; the superblock carries its own checksum and plausibility
// limits; the node decoder rejects malformed pages; and hydration holds the
// pages to the header's object count and height.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// Superblock constants.
const (
	superMagic = "CBBSNAP1"
	// Version is the default snapshot format version written by this
	// package (the uncompressed v1 layout).
	Version = FormatV1
	// FormatV1 is the original snapshot format: fixed-size node pages in
	// the Figure 4a layout and a raw float64 clip table. v1 snapshots can
	// be reopened writable and rewritten in place.
	FormatV1 = 1
	// FormatV2 is the compressed snapshot format: node pages hold the
	// quantised/delta-coded v2 layout (rtree.CodecV2), the page size is
	// chosen from the largest encoded node rather than the node capacity,
	// and the clip table is quantised against the universe
	// (clipindex.EncodeTableV2). v2 snapshots open read-only.
	FormatV2 = 2
	// SuperPage is the page id of the superblock: always the first page of
	// the file, so readers can find it without any other metadata.
	SuperPage storage.PageID = 1

	// maxNodes bounds the node count accepted from a snapshot, guarding
	// decoders against allocation bombs in corrupt files.
	maxNodes = 1 << 26
	// maxHeight bounds the tree height (the node layout stores one byte).
	maxHeight = 255

	indexEntryBytes = 12 // node id (uint32) + page id (uint64)
)

// Common snapshot errors.
var (
	ErrBadMagic   = errors.New("snapshot: not a cbb snapshot (bad magic)")
	ErrBadVersion = errors.New("snapshot: unsupported snapshot version")
	ErrCorrupt    = errors.New("snapshot: corrupt snapshot")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ClipMethod records in the superblock how the snapshot's clip table was
// built (or that clipping is disabled).
type ClipMethod uint32

// Clip methods, in the order the public API uses.
const (
	ClipStairline ClipMethod = iota // the paper's CSTA
	ClipSkyline                     // the paper's CSKY
	ClipNone                        // plain R-tree, no clip table
)

// CoreMethod maps the snapshot code to the clip-construction method; ok is
// false for ClipNone.
func (m ClipMethod) CoreMethod() (core.Method, bool) {
	switch m {
	case ClipStairline:
		return core.MethodStairline, true
	case ClipSkyline:
		return core.MethodSkyline, true
	default:
		return 0, false
	}
}

// Meta is the snapshot header: everything needed to reconstruct the index
// configuration, plus the structural facts (object count, height, root) that
// a lazy open cannot derive without reading every page.
type Meta struct {
	// PageSize is the page size of the snapshot's page file; 0 lets Write
	// pick one (for v1: DefaultPageSize, grown if the node capacity needs
	// more; for v2: the largest encoded node, rounded up).
	PageSize int

	// Format selects the snapshot layout (FormatV1 or FormatV2); 0 means
	// FormatV1, so existing callers are unaffected.
	Format int

	// Index configuration.
	Dims        int
	Variant     rtree.Variant
	MaxEntries  int
	MinEntries  int
	HilbertBits int
	Universe    geom.Rect

	// Clipping parameters.
	ClipMethod    ClipMethod
	MaxClipPoints int
	ClipTau       float64

	// Structural facts, filled in by Write from the tree.
	Objects int
	Height  int
	Root    rtree.NodeID
}

// Config reconstructs the R-tree configuration stored in the header.
func (m Meta) Config() rtree.Config {
	return rtree.Config{
		Dims:        m.Dims,
		MaxEntries:  m.MaxEntries,
		MinEntries:  m.MinEntries,
		Variant:     m.Variant,
		Universe:    m.Universe,
		HilbertBits: m.HilbertBits,
	}
}

// ClipParams reconstructs the clipping parameters; ok is false when the
// snapshot was written without clipping.
func (m Meta) ClipParams() (core.Params, bool) {
	method, ok := m.ClipMethod.CoreMethod()
	if !ok {
		return core.Params{}, false
	}
	return core.Params{K: m.MaxClipPoints, Tau: m.ClipTau, Method: method}, true
}

// Codec returns the node-page codec matching the header's format.
func (m Meta) Codec() rtree.PageCodec {
	if m.Format >= FormatV2 {
		return rtree.CodecV2
	}
	return rtree.CodecV1
}

// PageSizeFor returns the page size Write uses for the given configuration:
// the default 4 KiB page unless a node of MaxEntries entries needs more, in
// which case the size is rounded up to the next 4 KiB multiple.
func PageSizeFor(maxEntries, dims int) int {
	need := rtree.PageBytesFor(maxEntries, dims)
	if need <= storage.DefaultPageSize {
		return storage.DefaultPageSize
	}
	pages := (need + storage.DefaultPageSize - 1) / storage.DefaultPageSize
	return pages * storage.DefaultPageSize
}

// superBytesFor is the encoded superblock size for a given dimensionality
// (the fixed header fields plus the 2·dims universe extents); the page size
// of a v2 snapshot must be at least this, since the superblock shares the
// page file with the compressed node pages.
func superBytesFor(dims int) int { return 120 + 16*dims }

// v2PageSizeFor picks the page size of a compressed snapshot: the largest
// v2-encoded node of the tree (the format has no fixed per-node size), but
// never smaller than the superblock, rounded up to a 64-byte multiple so
// slots stay cache-line aligned.
func v2PageSizeFor(tree *rtree.Tree, dims int) (int, error) {
	need, err := tree.MaxEncodedNodeBytes(rtree.CodecV2)
	if err != nil {
		return 0, err
	}
	if s := superBytesFor(dims); s > need {
		need = s
	}
	return (need + 63) &^ 63, nil
}

// fillPageSize resolves a zero meta.PageSize to the format's natural size.
func fillPageSize(meta Meta, tree *rtree.Tree) (Meta, error) {
	if meta.PageSize != 0 {
		return meta, nil
	}
	if meta.Format >= FormatV2 {
		if tree == nil {
			return meta, errors.New("snapshot: v2 page size needs the tree")
		}
		ps, err := v2PageSizeFor(tree, meta.Dims)
		if err != nil {
			return meta, err
		}
		meta.PageSize = ps
		return meta, nil
	}
	meta.PageSize = PageSizeFor(meta.MaxEntries, meta.Dims)
	return meta, nil
}

// ClipSource is a clip table a snapshot can serialise: a clipindex.Table
// (decoded from another snapshot, say) or a *clipindex.Index, which encodes
// straight from its resident records. EncodeClips returns the clip section in
// the format-1 layout for a nil universe and the format-2 layout otherwise,
// nil when there are no clip points. A nil ClipSource has none.
type ClipSource interface {
	EncodeClips(dims int, universe *geom.Rect) []byte
}

// encodeClip serialises the clip table in the header's format.
func encodeClip(meta Meta, clips ClipSource) []byte {
	switch {
	case clips == nil:
		return nil
	case meta.Format >= FormatV2:
		return clips.EncodeClips(meta.Dims, &meta.Universe)
	}
	return clips.EncodeClips(meta.Dims, nil)
}

// Layout locates the snapshot's regions inside the page file, as the
// superblock records them; it is exposed so integrity checkers (cbbinspect
// -verify) can account for every page the snapshot claims to own.
type Layout struct {
	RootPage   storage.PageID
	NodeCount  int
	IndexFirst storage.PageID
	IndexPages int
	ClipFirst  storage.PageID
	ClipPages  int
	ClipBytes  int
}

// Snapshot is a decoded snapshot: its header, the location of every node
// page, and the clip table. The node pages themselves stay in the page store
// until LoadTree or OpenTree asks for them.
type Snapshot struct {
	Meta   Meta
	Pages  map[rtree.NodeID]storage.PageID
	Table  clipindex.Table
	Layout Layout
}

// LoadTree loads the snapshot's tree from the page store into memory (the
// Load half of the Save/Load pair) and holds what the pages contain to the
// header: a differing object count or height is ErrCorrupt.
func (s *Snapshot) LoadTree(store storage.PageStore) (*rtree.Tree, error) {
	if s.Meta.Root == rtree.InvalidNode {
		return rtree.New(s.Meta.Config())
	}
	t, err := rtree.Load(s.Meta.Config(), store, s.Pages, s.Meta.Root, s.Meta.Codec())
	if err != nil {
		return nil, err
	}
	if t.Len() != s.Meta.Objects {
		return nil, fmt.Errorf("%w: header claims %d objects, pages hold %d", ErrCorrupt, s.Meta.Objects, t.Len())
	}
	if t.Height() != s.Meta.Height {
		return nil, fmt.Errorf("%w: header claims height %d, pages give %d", ErrCorrupt, s.Meta.Height, t.Height())
	}
	return t, nil
}

// OpenTree returns a tree that faults node pages in from the store on
// demand, so queries run directly against the backing file. With readonly
// false the tree is writable: mutations accumulate in its dirty set and
// Rewrite commits them back into the snapshot in place. Compressed (v2)
// snapshots only open read-only: their pages are sized to the encoded node,
// so a mutated node might not fit back in its slot.
func (s *Snapshot) OpenTree(store storage.PageStore, readonly bool) (*rtree.Tree, error) {
	return rtree.OpenPaged(s.Meta.Config(), store, s.Pages, s.Meta.Root, s.Meta.Objects, s.Meta.Height, readonly, s.Meta.Codec())
}

// Write serialises the tree and its clip table into a freshly created page
// store: superblock first, then the node pages (Figure 4a), the node index,
// and the clip table (Figure 4b). meta's configuration fields must describe
// the tree; its structural fields are filled in here.
func Write(store storage.PageStore, tree *rtree.Tree, clips ClipSource, meta Meta) error {
	meta, clipBuf, err := checkMeta(store, tree, clips, meta)
	if err != nil {
		return err
	}
	meta.Objects = tree.Len()
	meta.Height = tree.Height()
	meta.Root = tree.RootID()

	super, err := store.Allocate(storage.KindAux)
	if err != nil {
		return err
	}
	if super != SuperPage {
		return errors.New("snapshot: page store must be empty (superblock did not land on page 1)")
	}

	pages := map[rtree.NodeID]storage.PageID{}
	if meta.Root != rtree.InvalidNode {
		if pages, err = tree.Save(store, meta.Codec()); err != nil {
			return err
		}
	}
	return writeTail(store, meta, pages, clipBuf)
}

// writeTail writes everything that follows a snapshot's node pages, for every
// writer of one (Write, Rewrite, Transcode): the node index and the clip
// table, each spread over a fresh run of aux pages, and last the superblock
// that locates them.
func writeTail(store storage.PageStore, meta Meta, pages map[rtree.NodeID]storage.PageID, clipBuf []byte) (err error) {
	lay := Layout{NodeCount: len(pages), ClipBytes: len(clipBuf)}
	if meta.Root != rtree.InvalidNode {
		lay.RootPage = pages[meta.Root]
	}
	if lay.IndexFirst, lay.IndexPages, err = storage.WriteChunked(store, encodeIndex(pages)); err != nil {
		return fmt.Errorf("snapshot: writing node index: %w", err)
	}
	if lay.ClipFirst, lay.ClipPages, err = storage.WriteChunked(store, clipBuf); err != nil {
		return fmt.Errorf("snapshot: writing clip table: %w", err)
	}
	return store.Write(SuperPage, encodeSuper(meta, lay))
}

// checkMeta validates that a snapshot header describes the tree and the
// store, filling in the page size; any divergence would checksum fine yet
// reopen as a differently configured index. It returns the clip section
// encoded in the header's format.
func checkMeta(store storage.PageStore, tree *rtree.Tree, clips ClipSource, meta Meta) (Meta, []byte, error) {
	if tree == nil {
		return meta, nil, errors.New("snapshot: tree must not be nil")
	}
	cfg := tree.Config()
	if meta.Dims != cfg.Dims || meta.Variant != cfg.Variant ||
		meta.MaxEntries != cfg.MaxEntries || meta.MinEntries != cfg.MinEntries ||
		meta.HilbertBits != cfg.HilbertBits || !meta.Universe.Equal(cfg.Universe) {
		return meta, nil, fmt.Errorf("snapshot: header (%dd %v M=%d m=%d bits=%d) does not describe the tree (%dd %v M=%d m=%d bits=%d)",
			meta.Dims, meta.Variant, meta.MaxEntries, meta.MinEntries, meta.HilbertBits,
			cfg.Dims, cfg.Variant, cfg.MaxEntries, cfg.MinEntries, cfg.HilbertBits)
	}
	if meta.Format == 0 {
		meta.Format = FormatV1
	}
	if meta.Format != FormatV1 && meta.Format != FormatV2 {
		return meta, nil, fmt.Errorf("snapshot: unknown format %d", meta.Format)
	}
	meta, err := fillPageSize(meta, tree)
	if err != nil {
		return meta, nil, err
	}
	if store.PageSize() != meta.PageSize {
		return meta, nil, fmt.Errorf("snapshot: page store has page size %d, header says %d", store.PageSize(), meta.PageSize)
	}
	clipBuf := encodeClip(meta, clips)
	if meta.ClipMethod == ClipNone && len(clipBuf) > 0 {
		return meta, nil, errors.New("snapshot: clip table present but clip method is none")
	}
	return meta, clipBuf, nil
}

// Rewrite commits the current state of a writable file-backed tree back into
// its snapshot in place — the incremental counterpart of Write. Dirty node
// pages are written back through the tree's FlushDirty (new nodes get pages,
// pages of dissolved nodes return to the free list), the node index and the
// Figure 4b clip table are re-written in freshly allocated aux pages (their
// previous pages freed first, so the space is reused), and the superblock is
// rewritten last. Rewrite itself does not force durability: on a journaled
// FilePager the caller's CommitJournal makes the whole batch atomic, which
// is how Flush gives crash consistency.
func Rewrite(store storage.PageStore, tree *rtree.Tree, clips ClipSource, meta Meta) error {
	if meta.Format >= FormatV2 {
		return errors.New("snapshot: v2 (compressed) snapshots are read-only and cannot be rewritten in place")
	}
	meta, clipBuf, err := checkMeta(store, tree, clips, meta)
	if err != nil {
		return err
	}
	// The old layout locates the aux regions this rewrite replaces.
	buf, _, err := store.Read(SuperPage)
	if err != nil {
		return fmt.Errorf("snapshot: reading superblock: %w", err)
	}
	_, oldLay, err := decodeSuper(buf, store.PageSize())
	if err != nil {
		return err
	}
	for i := 0; i < oldLay.IndexPages; i++ {
		if err := store.Free(oldLay.IndexFirst + storage.PageID(i)); err != nil {
			return fmt.Errorf("snapshot: freeing node-index page: %w", err)
		}
	}
	for i := 0; i < oldLay.ClipPages; i++ {
		if err := store.Free(oldLay.ClipFirst + storage.PageID(i)); err != nil {
			return fmt.Errorf("snapshot: freeing clip-table page: %w", err)
		}
	}

	meta.Objects = tree.Len()
	meta.Height = tree.Height()
	meta.Root = tree.RootID()
	pages, commit, err := tree.FlushDirty()
	if err != nil {
		return err
	}
	if err := writeTail(store, meta, pages, clipBuf); err != nil {
		return err
	}
	// Every page of the rewrite is staged; only now may the tree retire its
	// dirty-set bookkeeping. A failure anywhere above leaves the tree still
	// dirty, so discarding the store's journal and retrying is safe.
	commit()
	return nil
}

// Read decodes a snapshot's superblock, node index, and clip table from a
// page store, validating magic, version, checksums, and plausibility limits.
// Node pages are left on the store for LoadTree / OpenTree.
func Read(store storage.PageStore) (*Snapshot, error) {
	buf, _, err := store.Read(SuperPage)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading superblock: %w", err)
	}
	meta, lay, err := decodeSuper(buf, store.PageSize())
	if err != nil {
		return nil, err
	}

	indexBuf, err := storage.ReadChunked(store, lay.IndexFirst, lay.IndexPages, lay.NodeCount*indexEntryBytes)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading node index: %w", err)
	}
	pages, err := decodeIndex(indexBuf, lay.NodeCount)
	if err != nil {
		return nil, err
	}
	if meta.Root != rtree.InvalidNode {
		if got, ok := pages[meta.Root]; !ok || got != lay.RootPage {
			return nil, fmt.Errorf("%w: root node %d not indexed at root page %d", ErrCorrupt, meta.Root, lay.RootPage)
		}
	}

	snap := &Snapshot{Meta: meta, Pages: pages, Layout: lay}
	if lay.ClipBytes > 0 {
		clipBuf, err := storage.ReadChunked(store, lay.ClipFirst, lay.ClipPages, lay.ClipBytes)
		if err != nil {
			return nil, fmt.Errorf("snapshot: reading clip table: %w", err)
		}
		var dims int
		if meta.Format >= FormatV2 {
			snap.Table, dims, err = clipindex.DecodeTableV2(clipBuf, meta.Universe)
		} else {
			snap.Table, dims, err = clipindex.DecodeTable(clipBuf)
		}
		if err != nil {
			return nil, err
		}
		if dims != meta.Dims {
			return nil, fmt.Errorf("%w: clip table is %d-dimensional, header says %d", ErrCorrupt, dims, meta.Dims)
		}
	}
	return snap, nil
}

// --- streaming and file conveniences ----------------------------------------

// SaveTo writes a snapshot of the tree as a byte stream (the page file
// format) to w.
func SaveTo(w io.Writer, tree *rtree.Tree, clips ClipSource, meta Meta) error {
	meta, err := fillPageSize(meta, tree)
	if err != nil {
		return err
	}
	pager := storage.NewPager(meta.PageSize)
	if err := Write(pager, tree, clips, meta); err != nil {
		return err
	}
	_, err = pager.WriteTo(w)
	return err
}

// LoadFrom reads a snapshot stream into an in-memory pager and decodes it.
// The returned pager holds the node pages for Snapshot.LoadTree.
func LoadFrom(r io.Reader) (*Snapshot, *storage.Pager, error) {
	pager, err := storage.ReadPagerFrom(r)
	if err != nil {
		return nil, nil, err
	}
	snap, err := Read(pager)
	if err != nil {
		return nil, nil, err
	}
	return snap, pager, nil
}

// WriteFile writes a snapshot to path atomically: the pages go to a
// temporary file in the same directory, which is fsynced and renamed over
// path only after every page is on disk.
func WriteFile(path string, tree *rtree.Tree, clips ClipSource, meta Meta) error {
	meta, err := fillPageSize(meta, tree)
	if err != nil {
		return err
	}
	return atomicWritePageFile(path, meta.PageSize, func(fp *storage.FilePager) error {
		return Write(fp, tree, clips, meta)
	})
}

// atomicWritePageFile creates a page file at path atomically: fill populates
// a FilePager over a temporary file in the same directory, which is fsynced
// and renamed over path only after every page is on disk.
func atomicWritePageFile(path string, pageSize int, fill func(*storage.FilePager) error) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	tmp.Close()
	fail := func(err error) error {
		os.Remove(tmpPath)
		return err
	}
	// CreateTemp makes the file 0600; shipped snapshots should be readable
	// like any file CreateFilePager makes directly.
	if err := os.Chmod(tmpPath, 0o644); err != nil {
		return fail(err)
	}
	fp, err := storage.CreateFilePager(tmpPath, pageSize)
	if err != nil {
		return fail(err)
	}
	if err := fill(fp); err != nil {
		fp.Close()
		return fail(err)
	}
	if err := fp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		return fail(err)
	}
	// Flush the directory entry too, so the rename itself survives a crash.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// OpenFile opens a snapshot file for lazy, file-backed access. The caller
// owns the returned FilePager and must Close it when done with the tree.
// With readonly set the page file is opened strictly read-only: the snapshot
// (and any pending write-ahead log next to it) is never modified — a
// committed WAL is replayed into an in-memory overlay and left on disk.
// Inspection tools use this so that examining a file has no side effects.
func OpenFile(path string, readonly bool) (*Snapshot, *storage.FilePager, error) {
	open := storage.OpenFilePager
	if readonly {
		open = storage.OpenFilePagerReadOnly
	}
	fp, err := open(path)
	if err != nil {
		return nil, nil, err
	}
	snap, err := Read(fp)
	if err != nil {
		fp.Close()
		return nil, nil, err
	}
	return snap, fp, nil
}

// --- node index --------------------------------------------------------------

// encodeIndex serialises the node→page map in ascending node-id order so
// snapshots are deterministic.
func encodeIndex(pages map[rtree.NodeID]storage.PageID) []byte {
	ids := make([]rtree.NodeID, 0, len(pages))
	for id := range pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := make([]byte, 0, len(ids)*indexEntryBytes)
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pages[id]))
	}
	return buf
}

func decodeIndex(buf []byte, count int) (map[rtree.NodeID]storage.PageID, error) {
	if len(buf) < count*indexEntryBytes {
		return nil, fmt.Errorf("%w: node index truncated", ErrCorrupt)
	}
	pages := make(map[rtree.NodeID]storage.PageID, count)
	for i := 0; i < count; i++ {
		off := i * indexEntryBytes
		id := binary.LittleEndian.Uint32(buf[off:])
		pid := binary.LittleEndian.Uint64(buf[off+4:])
		if id > math.MaxInt32 {
			return nil, fmt.Errorf("%w: node id %d out of range", ErrCorrupt, id)
		}
		if pid == uint64(storage.InvalidPage) || pid == uint64(SuperPage) {
			return nil, fmt.Errorf("%w: node %d indexed at reserved page %d", ErrCorrupt, id, pid)
		}
		nid := rtree.NodeID(id)
		if _, dup := pages[nid]; dup {
			return nil, fmt.Errorf("%w: node %d indexed twice", ErrCorrupt, id)
		}
		pages[nid] = storage.PageID(pid)
	}
	return pages, nil
}

// --- superblock --------------------------------------------------------------

func encodeSuper(meta Meta, lay Layout) []byte {
	format := meta.Format
	if format == 0 {
		format = FormatV1
	}
	buf := make([]byte, 0, 160+16*meta.Dims)
	buf = append(buf, superMagic...)
	// The format doubles as the superblock version: a v1 reader rejects a
	// v2 file with ErrBadVersion instead of misreading its pages.
	buf = binary.LittleEndian.AppendUint32(buf, uint32(format))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(meta.PageSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(meta.Dims))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(meta.Variant))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(meta.MaxEntries))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(meta.MinEntries))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(meta.HilbertBits))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(meta.ClipMethod))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(meta.MaxClipPoints))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(meta.ClipTau))
	for d := 0; d < meta.Dims; d++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(meta.Universe.Lo[d]))
	}
	for d := 0; d < meta.Dims; d++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(meta.Universe.Hi[d]))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(meta.Objects))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(meta.Height))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(lay.NodeCount))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(meta.Root)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(lay.RootPage))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(lay.IndexFirst))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(lay.IndexPages))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(lay.ClipFirst))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(lay.ClipPages))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(lay.ClipBytes))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return buf
}

// cursor is a bounds-checked little-endian reader for superblock decoding.
type cursor struct {
	buf []byte
	off int
	ok  bool
}

func (c *cursor) bytes(n int) []byte {
	if !c.ok || c.off+n > len(c.buf) {
		c.ok = false
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u32() uint32 {
	b := c.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

func decodeSuper(buf []byte, storePageSize int) (Meta, Layout, error) {
	var meta Meta
	var lay Layout
	if len(buf) < len(superMagic)+8 {
		return meta, lay, fmt.Errorf("%w: superblock truncated", ErrCorrupt)
	}
	if string(buf[:len(superMagic)]) != superMagic {
		return meta, lay, ErrBadMagic
	}
	c := &cursor{buf: buf, off: len(superMagic), ok: true}
	switch v := c.u32(); v {
	case FormatV1, FormatV2:
		meta.Format = int(v)
	default:
		return meta, lay, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	meta.PageSize = int(c.u32())
	meta.Dims = int(c.u32())
	meta.Variant = rtree.Variant(c.u32())
	meta.MaxEntries = int(c.u32())
	meta.MinEntries = int(c.u32())
	meta.HilbertBits = int(c.u32())
	meta.ClipMethod = ClipMethod(c.u32())
	meta.MaxClipPoints = int(c.u32())
	meta.ClipTau = c.f64()
	if !c.ok || meta.Dims < 1 || meta.Dims > geom.MaxDims {
		return meta, lay, fmt.Errorf("%w: implausible dimensionality", ErrCorrupt)
	}
	lo := make(geom.Point, meta.Dims)
	hi := make(geom.Point, meta.Dims)
	for d := 0; d < meta.Dims; d++ {
		lo[d] = c.f64()
	}
	for d := 0; d < meta.Dims; d++ {
		hi[d] = c.f64()
	}
	meta.Universe = geom.Rect{Lo: lo, Hi: hi}
	meta.Objects = int(c.u64())
	meta.Height = int(c.u32())
	lay.NodeCount = int(c.u32())
	meta.Root = rtree.NodeID(int64(c.u64()))
	lay.RootPage = storage.PageID(c.u64())
	lay.IndexFirst = storage.PageID(c.u64())
	lay.IndexPages = int(c.u32())
	lay.ClipFirst = storage.PageID(c.u64())
	lay.ClipPages = int(c.u32())
	lay.ClipBytes = int(c.u64())
	body := c.off
	crc := c.u32()
	if !c.ok {
		return meta, lay, fmt.Errorf("%w: superblock truncated", ErrCorrupt)
	}
	if crc32.Checksum(buf[:body], castagnoli) != crc {
		return meta, lay, fmt.Errorf("%w: superblock checksum mismatch", ErrCorrupt)
	}
	if meta.PageSize != storePageSize {
		return meta, lay, fmt.Errorf("%w: header page size %d does not match file page size %d", ErrCorrupt, meta.PageSize, storePageSize)
	}
	switch meta.Variant {
	case rtree.Quadratic, rtree.Hilbert, rtree.RStar, rtree.RRStar:
	default:
		return meta, lay, fmt.Errorf("%w: unknown variant %d", ErrCorrupt, int(meta.Variant))
	}
	if meta.ClipMethod > ClipNone {
		return meta, lay, fmt.Errorf("%w: unknown clip method %d", ErrCorrupt, uint32(meta.ClipMethod))
	}
	if meta.MaxEntries < 4 {
		return meta, lay, fmt.Errorf("%w: implausible node capacity %d", ErrCorrupt, meta.MaxEntries)
	}
	if meta.Format < FormatV2 && rtree.PageBytesFor(meta.MaxEntries, meta.Dims) > meta.PageSize {
		// v2 pages are sized to the largest encoded node, not the node
		// capacity, so this bound only holds for the fixed v1 layout.
		return meta, lay, fmt.Errorf("%w: node capacity %d does not fit a %d-byte page", ErrCorrupt, meta.MaxEntries, meta.PageSize)
	}
	if meta.Format >= FormatV2 && meta.PageSize < superBytesFor(meta.Dims) {
		return meta, lay, fmt.Errorf("%w: %d-byte pages cannot hold the superblock", ErrCorrupt, meta.PageSize)
	}
	if lay.NodeCount < 0 || lay.NodeCount > maxNodes {
		return meta, lay, fmt.Errorf("%w: implausible node count %d", ErrCorrupt, lay.NodeCount)
	}
	if meta.Objects < 0 || meta.Objects > lay.NodeCount*meta.MaxEntries {
		return meta, lay, fmt.Errorf("%w: implausible object count %d for %d nodes", ErrCorrupt, meta.Objects, lay.NodeCount)
	}
	if meta.Height < 0 || meta.Height > maxHeight {
		return meta, lay, fmt.Errorf("%w: implausible height %d", ErrCorrupt, meta.Height)
	}
	if meta.Root == rtree.InvalidNode {
		if lay.NodeCount != 0 || meta.Objects != 0 || meta.Height != 0 || lay.RootPage != storage.InvalidPage {
			return meta, lay, fmt.Errorf("%w: empty tree with nodes attached", ErrCorrupt)
		}
	} else if meta.Root < 0 || lay.RootPage == storage.InvalidPage || lay.NodeCount == 0 || meta.Height < 1 {
		return meta, lay, fmt.Errorf("%w: missing root", ErrCorrupt)
	}
	wantIndex := (lay.NodeCount*indexEntryBytes + meta.PageSize - 1) / meta.PageSize
	if lay.IndexPages != wantIndex {
		return meta, lay, fmt.Errorf("%w: node index spans %d pages, expected %d", ErrCorrupt, lay.IndexPages, wantIndex)
	}
	if lay.ClipBytes < 0 || lay.ClipPages < 0 || lay.ClipBytes > lay.ClipPages*meta.PageSize {
		return meta, lay, fmt.Errorf("%w: implausible clip region", ErrCorrupt)
	}
	if lay.ClipBytes == 0 && lay.ClipPages != 0 {
		return meta, lay, fmt.Errorf("%w: empty clip table spanning %d pages", ErrCorrupt, lay.ClipPages)
	}
	if meta.ClipMethod == ClipNone && lay.ClipBytes != 0 {
		return meta, lay, fmt.Errorf("%w: clip table present but clip method is none", ErrCorrupt)
	}
	return meta, lay, nil
}
