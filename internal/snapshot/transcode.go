package snapshot

import (
	"fmt"
	"sort"

	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// Transcode rewrites the snapshot at srcPath into dstPath in the requested
// format, streaming one node page at a time — the tree is never materialised,
// so a beyond-RAM snapshot can be converted on a small machine. The source is
// opened strictly read-only (a pending committed WAL is folded into the
// output, not the source), and the destination is written atomically via a
// temporary file, so srcPath == dstPath compacts a snapshot in place.
//
// Converting v1→v2 compresses: directory rects are quantised (conservatively,
// so queries stay exact) and leaves delta-coded. Converting v2→v1 produces a
// writable snapshot again: the conservative quantisation is undone by
// restoring each directory entry to its child's exactly-stored MBB (read from
// the v2 page headers, O(nodes·dims) memory — the only per-node state the
// streaming conversion keeps). Transcoding to the current format is a
// compaction: pages are laid out densely in node-id order and any WAL is
// absorbed.
func Transcode(srcPath, dstPath string, format int) error {
	if format != FormatV1 && format != FormatV2 {
		return fmt.Errorf("snapshot: unknown format %d", format)
	}
	snap, src, err := OpenFile(srcPath, true)
	if err != nil {
		return err
	}
	defer src.Close()

	meta := snap.Meta
	fromCodec := meta.Codec()
	meta.Format = format
	toCodec := meta.Codec()
	dims := meta.Dims

	ids := make([]rtree.NodeID, 0, len(snap.Pages))
	for id := range snap.Pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// Dropping from v2 to v1 must undo the conservative directory
	// quantisation — v1 requires entry rects to equal their child's MBB
	// exactly — so collect every node's exactly-stored MBB from the v2 page
	// headers first.
	var childMBB func(rtree.NodeID) (geom.Rect, bool)
	if fromCodec == rtree.CodecV2 && toCodec == rtree.CodecV1 {
		mbbs := make(map[rtree.NodeID]geom.Rect, len(ids))
		for _, id := range ids {
			buf, _, err := src.Read(snap.Pages[id])
			if err != nil {
				return fmt.Errorf("snapshot: reading node %d: %w", id, err)
			}
			hid, mbb, err := rtree.NodePageMBB(buf, dims)
			if err != nil {
				return fmt.Errorf("snapshot: node %d: %w", id, err)
			}
			if hid != id {
				return fmt.Errorf("%w: node index says page %d holds node %d, page header says node %d", ErrCorrupt, snap.Pages[id], id, hid)
			}
			mbbs[id] = mbb
		}
		childMBB = func(id rtree.NodeID) (geom.Rect, bool) {
			r, ok := mbbs[id]
			return r, ok
		}
	}

	// readNode fetches and re-encodes one node page. Transcoding is cheap
	// (decode + encode, no allocation beyond the node), so running it twice —
	// once to discover the page size, once to write — keeps memory flat
	// instead of buffering every re-encoded page.
	readNode := func(id rtree.NodeID) ([]byte, storage.PageKind, error) {
		buf, kind, err := src.Read(snap.Pages[id])
		if err != nil {
			return nil, kind, fmt.Errorf("snapshot: reading node %d: %w", id, err)
		}
		if kind != storage.KindDirectory && kind != storage.KindLeaf {
			return nil, kind, fmt.Errorf("%w: node %d stored on a %v page", ErrCorrupt, id, kind)
		}
		out, err := rtree.TranscodeNodePage(buf, dims, fromCodec, toCodec, childMBB)
		if err != nil {
			return nil, kind, fmt.Errorf("snapshot: transcoding node %d: %w", id, err)
		}
		return out, kind, nil
	}

	// Pass 1: discover the destination page size.
	var pageSize int
	if format == FormatV2 {
		need := superBytesFor(dims)
		for _, id := range ids {
			out, _, err := readNode(id)
			if err != nil {
				return err
			}
			if len(out) > need {
				need = len(out)
			}
		}
		pageSize = (need + 63) &^ 63
	} else {
		pageSize = PageSizeFor(meta.MaxEntries, dims)
	}
	meta.PageSize = pageSize

	// Pass 2: write the destination file.
	return atomicWritePageFile(dstPath, pageSize, func(fp *storage.FilePager) error {
		super, err := fp.Allocate(storage.KindAux)
		if err != nil {
			return err
		}
		if super != SuperPage {
			return fmt.Errorf("snapshot: superblock landed on page %d", super)
		}
		pages := make(map[rtree.NodeID]storage.PageID, len(ids))
		for _, id := range ids {
			out, kind, err := readNode(id)
			if err != nil {
				return err
			}
			pid, err := fp.Allocate(kind)
			if err != nil {
				return err
			}
			if err := fp.Write(pid, out); err != nil {
				return err
			}
			pages[id] = pid
		}
		return writeTail(fp, meta, pages, encodeClip(meta, snap.Table))
	})
}
