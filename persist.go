package cbb

import (
	"errors"
	"fmt"
	"io"

	"cbb/internal/clipindex"
	"cbb/internal/rtree"
	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

// This file is the public surface of the persistence subsystem: snapshots of
// a tree (SaveTo / Load, any io.Writer / io.Reader) and file-backed trees
// that serve queries directly off an on-disk page file (Open / OpenReadOnly
// / Create). The format is defined in internal/snapshot: a versioned page
// file whose first page is a checksummed superblock, followed by the paper's
// Figure 4a node pages and Figure 4b clip table.
//
// File-backed trees are writable: Insert and Delete mutate the in-memory
// node directory and maintain the clip table incrementally, and Flush commits
// the dirty pages back into the file atomically through a write-ahead log
// (see internal/storage). Only trees opened with OpenReadOnly — or from a
// file the process cannot write — reject mutations.
//
// A snapshot file comes into being one way: written whole into a temporary
// file, fsynced and renamed over its path (WriteSnapshot, TranscodeSnapshot,
// and Create, which then opens it as Open does), so a crash leaves the old
// file or the new one, never a truncated one.

// ErrReadOnly is returned by mutating operations (Insert, Delete, BulkLoad,
// Flush) on a read-only tree: one opened with OpenReadOnly or OpenMmap, a
// compressed (v2) snapshot, or a file the process lacks write permission to.
// Every public mutating method wraps it so that errors.Is(err, cbb.ErrReadOnly)
// holds without reaching into internal packages.
var ErrReadOnly = rtree.ErrReadOnly

// ErrMmapUnsupported is returned by OpenMmap and OpenShardedMmap on
// platforms without memory-mapped file support; callers fall back to
// OpenReadOnly / OpenSharded.
var ErrMmapUnsupported = storage.ErrMmapUnsupported

// SnapshotFormat selects the on-disk layout of a snapshot written with
// WriteSnapshot or TranscodeSnapshot.
type SnapshotFormat int

// Snapshot formats.
const (
	// SnapshotV1 is the original layout: fixed-size node pages holding raw
	// float64 rectangles. v1 snapshots reopen writable.
	SnapshotV1 SnapshotFormat = snapshot.FormatV1
	// SnapshotV2 is the compressed layout: directory rectangles quantised
	// to 16-bit grid coordinates (conservatively, so query results are
	// bit-identical), leaf rectangles delta-coded losslessly, and the clip
	// table quantised against the universe. Typically 2–4× smaller on disk
	// and in buffer-pool residency; v2 snapshots open read-only — use
	// TranscodeSnapshot to convert back to v1 when a writable copy is
	// needed.
	SnapshotV2 SnapshotFormat = snapshot.FormatV2
)

// snapshotMeta maps the tree's effective options onto a snapshot header.
func (t *Tree) snapshotMeta() snapshot.Meta {
	cfg := t.tree.Config()
	method := snapshot.ClipNone
	switch t.opts.Clipping {
	case ClipStairline:
		method = snapshot.ClipStairline
	case ClipSkyline:
		method = snapshot.ClipSkyline
	}
	return snapshot.Meta{
		Dims:          cfg.Dims,
		Variant:       cfg.Variant,
		MaxEntries:    cfg.MaxEntries,
		MinEntries:    cfg.MinEntries,
		HilbertBits:   cfg.HilbertBits,
		Universe:      cfg.Universe,
		ClipMethod:    method,
		MaxClipPoints: t.opts.MaxClipPoints,
		ClipTau:       t.opts.ClipThreshold,
	}
}

// optionsFromMeta reconstructs the public Options stored in a snapshot
// header.
func optionsFromMeta(m snapshot.Meta) (Options, error) {
	opts := Options{
		Dims:          m.Dims,
		Variant:       m.Variant,
		MaxEntries:    m.MaxEntries,
		MinEntries:    m.MinEntries,
		MaxClipPoints: m.MaxClipPoints,
		ClipThreshold: m.ClipTau,
		Universe:      m.Universe,
	}
	switch m.ClipMethod {
	case snapshot.ClipStairline:
		opts.Clipping = ClipStairline
	case snapshot.ClipSkyline:
		opts.Clipping = ClipSkyline
	case snapshot.ClipNone:
		opts.Clipping = ClipNone
	default:
		return opts, fmt.Errorf("cbb: snapshot has unknown clip method %d", m.ClipMethod)
	}
	return opts, nil
}

// restore assembles a public Tree around a decoded snapshot's R-tree and
// clip table (none for a ClipNone snapshot: the index starts, and stays,
// empty).
func restore(snap *snapshot.Snapshot, base *rtree.Tree) (*Tree, error) {
	opts, err := optionsFromMeta(snap.Meta)
	if err != nil {
		return nil, err
	}
	idx, err := clipindex.Restore(base, opts.clipParams(), snap.Table)
	if err != nil {
		return nil, err
	}
	return &Tree{opts: opts, tree: base, idx: idx}, nil
}

// SaveTo writes a snapshot of the tree — configuration, node pages, and clip
// table — to w. The snapshot is self-describing: Load and Open reconstruct
// the tree without any out-of-band configuration, and reject corrupt or
// truncated input via magic, version, and checksum validation. Like
// WriteSnapshot it waits for a mutation or batch in flight (the writer lock).
func (t *Tree) SaveTo(w io.Writer) error { return t.SaveToFormat(w, SnapshotV1) }

// SaveToFormat is SaveTo with an explicit snapshot format; SaveTo is
// equivalent to SaveToFormat(w, SnapshotV1).
func (t *Tree) SaveToFormat(w io.Writer, format SnapshotFormat) error {
	meta := t.snapshotMeta()
	meta.Format = int(format)
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return snapshot.SaveTo(w, t.tree, t.idx, meta)
}

// WriteSnapshot writes the tree as a snapshot file at path in the given
// format, atomically (temp file + rename). Unlike Flush it does not bind the
// tree to the file: it is the "export" operation, typically used to ship a
// compressed (SnapshotV2) copy of a tree for read-only serving via Open,
// OpenReadOnly, or OpenMmap.
func (t *Tree) WriteSnapshot(path string, format SnapshotFormat) error {
	meta := t.snapshotMeta()
	meta.Format = int(format)
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return snapshot.WriteFile(path, t.tree, t.idx, meta)
}

// TranscodeSnapshot rewrites the snapshot file at src into dst in the given
// format, streaming one node page at a time — the tree is never loaded, so a
// beyond-RAM snapshot converts on a small machine. src is opened strictly
// read-only and dst is written atomically, so src == dst compacts in place.
// v1→v2 compresses; v2→v1 produces a writable snapshot again.
func TranscodeSnapshot(src, dst string, format SnapshotFormat) error {
	return snapshot.Transcode(src, dst, int(format))
}

// Load reads a snapshot previously written with SaveTo and returns a fully
// in-memory tree: the lazy open Open performs, with every page brought in at
// once and no binding to the pages kept. The clip table is restored as
// saved, not recomputed, so queries against the loaded tree produce
// bit-identical results and I/O counts to the original. Structural soundness
// can be checked on demand with Validate.
func Load(r io.Reader) (*Tree, error) {
	snap, img, err := snapshot.LoadFrom(r)
	if err != nil {
		return nil, err
	}
	base, err := snap.LoadTree(img)
	if err != nil {
		return nil, err
	}
	return restore(snap, base)
}

// Open opens a snapshot file as a file-backed tree: node pages are decoded
// on demand from the file through a FilePager, so opening is near-instant
// regardless of index size, and every query pays its page accesses against
// the same I/O counters and optional buffer pool as an in-memory tree.
//
// The tree is writable when the file is: Insert and Delete work against the
// faulted-in node directory (maintaining the clip table incrementally), and
// Flush writes the dirty pages, clip table, and superblock back into the
// file in one atomic, WAL-protected commit. If the file cannot be opened
// for writing (e.g. mode 0444 or a read-only mount) the tree falls back to
// read-only and mutations return ErrReadOnly. Close commits pending changes
// and releases the file.
//
// A commit interrupted by a crash is recovered on the next Open: a
// committed write-ahead log next to the file is replayed, a torn one is
// discarded, so the tree reopens at either the pre- or the post-commit
// state, never a mix.
func Open(path string) (*Tree, error) {
	return openFile(path, false)
}

// OpenReadOnly opens a snapshot file like Open but explicitly read-only:
// mutations and Flush return ErrReadOnly regardless of file permissions.
// One exception to "never writes": if a crashed writer left a committed
// write-ahead log next to a writable file, opening recovers it (replaying
// the WAL in place) before serving reads, exactly as Open would — on
// genuinely read-only media the recovered state is instead served from
// memory and the medium stays untouched.
func OpenReadOnly(path string) (*Tree, error) {
	return openFile(path, true)
}

func openFile(path string, readonly bool) (*Tree, error) {
	snap, fp, err := snapshot.OpenFile(path, false)
	if err != nil {
		return nil, err
	}
	if fp.ReadOnlyFile() {
		readonly = true
	}
	if snap.Meta.Format >= snapshot.FormatV2 {
		// Compressed snapshots are read-only by construction: their pages
		// are sized to the encoded node, so a mutated node might not fit
		// back into its slot. Open degrades to read-only instead of failing.
		readonly = true
	}
	base, err := snap.OpenTree(fp, readonly)
	if err != nil {
		fp.Close()
		return nil, err
	}
	t, err := restore(snap, base)
	if err != nil {
		fp.Close()
		return nil, err
	}
	t.pager = fp
	return t, nil
}

// OpenMmap opens a snapshot file read-only with node pages served straight
// out of a memory mapping: queries decode nodes in place from the mapped
// file, with no read syscalls and no payload copies, and cold pages are
// faulted in by the kernel on first touch. This is the zero-copy path for
// serving a beyond-RAM snapshot — especially a compressed (SnapshotV2) one —
// with the OS page cache as the only buffer.
//
// Semantics match OpenReadOnly: mutations return ErrReadOnly, a committed
// write-ahead log next to the file is served from an in-memory overlay and
// left on disk. On platforms without mmap support it fails with
// ErrMmapUnsupported; fall back to OpenReadOnly.
func OpenMmap(path string) (*Tree, error) {
	ms, err := storage.OpenMmapStore(path)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Tree, error) {
		ms.Close()
		return nil, err
	}
	snap, err := snapshot.Read(ms)
	if err != nil {
		return fail(err)
	}
	base, err := snap.OpenTree(ms, true)
	if err != nil {
		return fail(err)
	}
	t, err := restore(snap, base)
	if err != nil {
		return fail(err)
	}
	t.mstore = ms
	return t, nil
}

// Create makes a new, empty, writable tree bound to a snapshot file at
// path: the empty tree's snapshot is written as WriteSnapshot writes one —
// into a temporary file that is fsynced and renamed over path, so a crash
// leaves the file that was at path or the new one — and opened as Open opens
// it. Insert, Delete, and BulkLoad work as on any tree, and every Flush or
// Close commits the accumulated changes into the file atomically through
// the write-ahead log. Create + Flush is the "build once, ship the file" half
// of the workflow whose other half is Open.
func Create(path string, opts Options) (*Tree, error) {
	t, err := New(opts)
	if err != nil {
		return nil, err
	}
	if err := snapshot.WriteFile(path, t.tree, t.idx, t.snapshotMeta()); err != nil {
		return nil, err
	}
	return Open(path)
}

// Flush commits every change since the last flush — dirty node pages, the
// clip table, the node index, and the superblock — back into the tree's
// snapshot file as one atomic transaction: the page images are made durable
// in a write-ahead log first, then applied in place. It returns ErrReadOnly
// for read-only trees and an error for trees with no bound file. A tree
// with nothing to commit just syncs the file.
func (t *Tree) Flush() error {
	if t.batchOpen.Load() {
		return errors.New("cbb: Flush with an open batch; Commit or Rollback it first")
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.flushLocked()
}

func (t *Tree) flushLocked() error {
	if t.mstore != nil {
		return fmt.Errorf("cbb: flush: %w", ErrReadOnly)
	}
	if t.pager == nil {
		return errors.New("cbb: tree has no snapshot file; use Create or Open, or SaveTo an io.Writer")
	}
	if t.tree.ReadOnly() {
		return fmt.Errorf("cbb: flush: %w", ErrReadOnly)
	}
	if !t.tree.Dirty() {
		return t.pager.CommitJournal() // commits table-only changes, if any; otherwise a sync
	}
	if err := snapshot.Rewrite(t.pager, t.tree, t.idx, t.snapshotMeta()); err != nil {
		// Roll the staged page mutations back so a failed flush leaves the
		// file binding at its last committed state.
		t.pager.DiscardJournal()
		return err
	}
	return t.pager.CommitJournal()
}

// Close releases the tree's persistence resources: a writable file-backed
// tree (Create or Open) is flushed — atomically, through the write-ahead
// log — and its page file released; a read-only tree just releases the
// file. Closing a tree with no persistence binding is a no-op. The tree
// must not be used afterwards.
func (t *Tree) Close() error {
	if t.batchOpen.Load() {
		return errors.New("cbb: Close with an open batch; Commit or Rollback it first")
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if t.mstore != nil {
		ms := t.mstore
		t.mstore = nil
		return ms.Close()
	}
	if t.pager == nil {
		return nil
	}
	var err error
	if !t.tree.ReadOnly() {
		err = t.flushLocked()
	}
	if cerr := t.pager.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadOnly reports whether the tree rejects mutations with ErrReadOnly: it
// was opened with OpenReadOnly, or with Open from an unwritable file.
func (t *Tree) ReadOnly() bool { return t.tree.ReadOnly() }

// Err returns the first page-fault failure of a file-backed tree (an
// unreadable or corrupt page hit during a read), or nil. BatchSearch, the
// joins, Validate and the writes return the fault they hit; Err is the only
// report of Search, SearchAll, Count, NearestNeighbors, Bounds and Stats,
// which stop at the node they cannot read.
func (t *Tree) Err() error { return t.tree.Err() }

// Materialize brings every node of a file-backed tree into memory (a warm
// start) and holds the file to the standard Load applies: every page
// readable and holding the node its index entry names, every child present,
// object count and height as the header says. It is a no-op for in-memory
// trees. Like Validate it is a writer-side operation: queries may run beside
// it, mutations may not.
func (t *Tree) Materialize() error { return t.tree.Materialize() }

// FileStats reports the physical page I/O of a tree opened with Open: pages
// actually read from and written to the snapshot file. ok is false for
// trees without a file backing. Unlike IOStats — which counts every logical
// node access — FileStats moves only when a page is faulted in from disk.
func (t *Tree) FileStats() (reads, writes int64, ok bool) {
	switch {
	case t.pager != nil:
		reads, writes = t.pager.DiskStats()
		return reads, writes, true
	case t.mstore != nil:
		reads, writes = t.mstore.DiskStats()
		return reads, writes, true
	default:
		return 0, 0, false
	}
}
