package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the on-disk page store and its byte format. The same
// layout is used two ways: by FilePager for random-access page files, and by
// Image for a page file held in memory (a snapshot stream, or MmapStore's
// mapping). A file is a fixed header followed by equally sized page slots, so
// page id i lives at a computable offset and can be read without touching any
// other page. Every open checks the header and that the file holds whole
// slots (checkPageFile), and every page read checks its slot (decodeSlot).
//
// Layout (all little-endian):
//
//	file header (32 bytes):
//	  [0:8]   magic "CBBPGF1\x00"
//	  [8:12]  format version (currently 1)
//	  [12:16] page size in bytes
//	  [16:24] page count (advisory; the file size is authoritative)
//	  [24:28] reserved (zero)
//	  [28:32] CRC-32C of bytes [0:28]
//	slot i (page id i+1) at offset 32 + i*(16+pageSize):
//	  [0]     page kind
//	  [1]     flags (bit 0: slot in use)
//	  [2:4]   reserved (zero)
//	  [4:8]   payload length
//	  [8:12]  CRC-32C of the payload
//	  [12:16] reserved (zero)
//	  [16:]   payload region, pageSize bytes (zero-padded past the payload)

const (
	fileMagic       = "CBBPGF1\x00"
	fileVersion     = 1
	fileHeaderBytes = 32
	slotHeaderBytes = 16
	slotInUse       = 1

	// minPageSize and maxPageSize bound the page sizes accepted when reading
	// a page file, guarding decoders against absurd allocations.
	minPageSize = 64
	maxPageSize = 1 << 20
)

// Errors of the on-disk page format.
var (
	ErrBadMagic   = errors.New("storage: not a cbb page file (bad magic)")
	ErrBadVersion = errors.New("storage: unsupported page file version")
	ErrCorrupt    = errors.New("storage: page file corrupt")
	ErrReadOnlyFS = errors.New("storage: page file opened read-only")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

func encodeFileHeader(pageSize int, pageCount uint64) []byte {
	buf := make([]byte, fileHeaderBytes)
	copy(buf, fileMagic)
	binary.LittleEndian.PutUint32(buf[8:], fileVersion)
	binary.LittleEndian.PutUint32(buf[12:], uint32(pageSize))
	binary.LittleEndian.PutUint64(buf[16:], pageCount)
	binary.LittleEndian.PutUint32(buf[28:], checksum(buf[:28]))
	return buf
}

func decodeFileHeader(buf []byte) (pageSize int, pageCount uint64, err error) {
	if len(buf) < fileHeaderBytes {
		return 0, 0, fmt.Errorf("%w: header truncated", ErrCorrupt)
	}
	if string(buf[:8]) != fileMagic {
		return 0, 0, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != fileVersion {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	if got, want := binary.LittleEndian.Uint32(buf[28:]), checksum(buf[:28]); got != want {
		return 0, 0, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	ps := int(binary.LittleEndian.Uint32(buf[12:]))
	if ps < minPageSize || ps > maxPageSize {
		return 0, 0, fmt.Errorf("%w: implausible page size %d", ErrCorrupt, ps)
	}
	return ps, binary.LittleEndian.Uint64(buf[16:]), nil
}

// checkPageFile is the check every open runs — FilePager, MmapStore, and
// ReadImage over a stream's bytes: the header at the start of buf must be
// valid and a file of size bytes must hold a whole number of slots after it.
// It returns the page size and the slot count.
func checkPageFile(buf []byte, size int64) (pageSize, slots int, err error) {
	if pageSize, _, err = decodeFileHeader(buf); err != nil {
		return 0, 0, err
	}
	slotSize := int64(slotHeaderBytes + pageSize)
	body := size - fileHeaderBytes
	if body%slotSize != 0 {
		return 0, 0, fmt.Errorf("%w: file size %d does not match page size %d", ErrCorrupt, size, pageSize)
	}
	return pageSize, int(body / slotSize), nil
}

// statPageFile reads f's header and runs checkPageFile against f's size.
func statPageFile(f File) (pageSize, slots int, size int64, err error) {
	hdr := make([]byte, fileHeaderBytes)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return 0, 0, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	st, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	pageSize, slots, err = checkPageFile(hdr, st.Size())
	return pageSize, slots, st.Size(), err
}

func encodeSlotHeader(kind PageKind, inUse bool, payload []byte) []byte {
	buf := make([]byte, slotHeaderBytes)
	buf[0] = byte(kind)
	if inUse {
		buf[1] = slotInUse
	}
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[8:], checksum(payload))
	return buf
}

type slotMeta struct {
	length int
	kind   PageKind
	inUse  bool
	// unwritten marks an appended slot whose bytes are not in the file yet:
	// neither written nor flushed (flushAppendsLocked).
	unwritten bool
}

func decodeSlotHeader(buf []byte, pageSize int) (slotMeta, uint32, error) {
	if len(buf) < slotHeaderBytes {
		return slotMeta{}, 0, fmt.Errorf("%w: slot header truncated", ErrCorrupt)
	}
	m := slotMeta{
		kind:   PageKind(buf[0]),
		inUse:  buf[1]&slotInUse != 0,
		length: int(binary.LittleEndian.Uint32(buf[4:])),
	}
	if m.length > pageSize {
		return slotMeta{}, 0, fmt.Errorf("%w: slot payload length %d exceeds page size %d", ErrCorrupt, m.length, pageSize)
	}
	return m, binary.LittleEndian.Uint32(buf[8:]), nil
}

// decodeSlot is the one slot reader, behind FilePager.Read, Image (and so
// MmapStore) and ReadImage: it checks the slot header and, for a page in use,
// the payload's CRC, and returns the payload as a view of slot. A free slot
// is ErrPageNotFound.
func decodeSlot(slot []byte, pageSize int, id PageID) ([]byte, PageKind, error) {
	m, crc, err := decodeSlotHeader(slot, pageSize)
	if err != nil {
		return nil, 0, fmt.Errorf("page %d: %w", id, err)
	}
	if !m.inUse {
		return nil, 0, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	payload := slot[slotHeaderBytes : slotHeaderBytes+m.length]
	if checksum(payload) != crc {
		return nil, 0, fmt.Errorf("%w: page %d payload checksum mismatch", ErrCorrupt, id)
	}
	return payload, m.kind, nil
}

// FilePager is an on-disk implementation of the PageStore contract: a page
// file whose fixed-size slots are read and written in place, so a tree can
// run directly off disk through the same buffer pool and I/O counters as an
// in-memory tree. Every payload is protected by a CRC-32C verified on
// read. It is safe for concurrent use; Read performs the disk access outside
// the lock so concurrent readers proceed in parallel.
//
// Opening is O(1) in the file size: the slot directory and free list are
// rebuilt lazily, on the first operation that needs them (Allocate, Write,
// Free, Usage); the pure read path never does. Files that cannot be opened
// for writing are opened read-only — reads work as usual, mutations return
// ErrReadOnlyFS, and Close leaves the file bytes and mtime untouched.
//
// A pager can additionally be put in journal mode (EnableJournal): page
// mutations are then staged in an in-memory overlay — the dirty-page set —
// and hit the file only on CommitJournal, which funnels the whole batch
// through a write-ahead log so the commit is atomic: after a crash at any
// point, reopening the file yields either the state before the commit or the
// state after it, never a mix. Opening a page file replays a committed WAL
// left behind by a crash and discards a torn one.
type FilePager struct {
	mu             sync.Mutex
	f              File
	path           string
	pageSize       int
	readonly       bool
	dirty          bool       // header must be rewritten on Sync/Close
	slotCount      int        // number of slots, including staged appends
	committedSlots int        // number of slots physically in the file
	dir            []slotMeta // lazy slot directory; nil until ensureDirLocked
	free           []PageID   // valid only once dir is built
	appended       []PageID   // slots appended since the last flush of appends
	journal        bool       // mutations are staged until CommitJournal
	overlay        map[PageID]*overlayPage
	closed         bool
	reads          int64 // atomic: pages read from disk
	writes         int64 // atomic: pages written to disk

	// Group-commit accounting (guarded by mu, see CommitStats).
	commits     int64 // successful CommitJournal calls that had staged pages
	commitPages int64 // page images carried by those commits, summed
	walFsyncs   int64 // WAL fsyncs issued — exactly one per group commit
}

// overlayPage is one staged (dirty) page of a journaled pager: the image the
// next commit will write, or a tombstone (inUse false) for a freed page.
type overlayPage struct {
	kind  PageKind
	inUse bool
	data  []byte
}

var _ PageStore = (*FilePager)(nil)

// CreateFilePager creates (or truncates) a page file at path with the given
// page size (DefaultPageSize when pageSize <= 0). Any write-ahead log left
// next to the path by a previous incarnation of the file is discarded.
func CreateFilePager(path string, pageSize int) (*FilePager, error) {
	p, err := newFilePager(path, pageSize)
	if err != nil {
		return nil, err
	}
	if p.f, err = fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644); err != nil {
		return nil, err
	}
	// A stale committed WAL from the file this one replaces must never be
	// replayed onto the fresh file.
	if err = Remove(WALPathFor(path)); err == nil {
		_, err = p.f.WriteAt(encodeFileHeader(p.pageSize, 0), 0)
	}
	if err != nil {
		p.f.Close()
		return nil, err
	}
	return p, nil
}

// newFilePager is the empty pager of a new page file at path, not open yet.
func newFilePager(path string, pageSize int) (*FilePager, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < minPageSize || pageSize > maxPageSize {
		return nil, fmt.Errorf("storage: page size %d out of range [%d, %d]", pageSize, minPageSize, maxPageSize)
	}
	return &FilePager{path: path, pageSize: pageSize, dir: []slotMeta{}, dirty: true}, nil
}

// OpenFilePager opens an existing page file, validating its header. The
// file is opened read-write when possible, falling back to read-only (e.g.
// for a snapshot shipped with mode 0444 or on a read-only mount); in that
// case mutations return ErrReadOnlyFS. Opening costs O(1) in the file size:
// slot metadata is read on demand, never scanned up front.
//
// If a write-ahead log with a committed transaction sits next to the file —
// the trace of a commit interrupted after its atomicity point — the log is
// replayed: onto the file when it is writable, or into an in-memory overlay
// when it is not, so readers always observe the committed state. A torn log
// (crash before the commit point) is discarded; the file is already
// consistent at the pre-commit state.
func OpenFilePager(path string) (*FilePager, error) { return openFilePager(path, false) }

// OpenFilePagerReadOnly opens an existing page file strictly read-only,
// regardless of file permissions: mutations return ErrReadOnlyFS, Close
// leaves the file bytes, mtime, and any write-ahead log untouched. A
// committed WAL next to the file is replayed into an in-memory overlay so
// reads observe the committed state — and is left on disk for a future
// writable open to apply. Inspection tools use this so that looking at a
// snapshot can never alter it.
func OpenFilePagerReadOnly(path string) (*FilePager, error) { return openFilePager(path, true) }

func openFilePager(path string, readonly bool) (*FilePager, error) {
	var f File
	var err error
	if !readonly {
		f, err = fsys.OpenFile(path, os.O_RDWR, 0)
		readonly = err != nil
	}
	if readonly {
		if f, err = fsys.OpenFile(path, os.O_RDONLY, 0); err != nil {
			return nil, err
		}
	}
	pageSize, slots, _, err := statPageFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	p := &FilePager{
		f: f, path: path, pageSize: pageSize,
		readonly: readonly, slotCount: slots, committedSlots: slots,
	}
	if err := p.recoverWAL(); err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// recoverWAL inspects the pager's write-ahead log, if any, right after open.
// On read-only media the committed state is served from an overlay
// (walOverlay) and the log stays for a future writable open; on writable
// media a committed log is applied to the file, and whatever log there was —
// applied, torn, or foreign — is removed.
func (p *FilePager) recoverWAL() (err error) {
	walPath := WALPathFor(p.path)
	if p.readonly {
		p.overlay, p.slotCount, err = walOverlay(walPath, p.pageSize, p.slotCount)
		return err
	}
	info, err := committedWAL(walPath, p.pageSize)
	if err != nil {
		return err
	}
	if info != nil {
		if err := p.applyRecordsLocked(info.Records, info.SlotCount); err != nil {
			return fmt.Errorf("storage: replaying WAL %s: %w", walPath, err)
		}
	}
	return Remove(walPath)
}

// ensureDirLocked builds the slot directory and free list by scanning the
// slot headers; p.mu must be held. It runs at most once per pager, and only
// for operations that genuinely need global state (Allocate, Write, Free,
// Usage) — never on the open or read path.
func (p *FilePager) ensureDirLocked() error {
	if p.dir != nil {
		return nil
	}
	dir := make([]slotMeta, p.slotCount)
	var free []PageID
	buf := make([]byte, slotHeaderBytes)
	slotSize := int64(slotHeaderBytes + p.pageSize)
	for i := 0; i < p.slotCount; i++ {
		// Slots beyond the physically committed region exist only in the
		// overlay (a read-only pager whose WAL extended the file); their
		// on-disk meta is all-zero.
		if i < p.committedSlots {
			if _, err := p.f.ReadAt(buf, fileHeaderBytes+int64(i)*slotSize); err != nil {
				return fmt.Errorf("%w: reading slot %d header: %v", ErrCorrupt, i, err)
			}
			m, _, err := decodeSlotHeader(buf, p.pageSize)
			if err != nil {
				return fmt.Errorf("slot %d: %w", i, err)
			}
			dir[i] = m
		} else {
			dir[i] = slotMeta{}
		}
		if ov, ok := p.overlay[PageID(i+1)]; ok {
			if ov.inUse {
				dir[i] = slotMeta{kind: ov.kind, inUse: true, length: len(ov.data)}
			} else {
				dir[i] = slotMeta{}
			}
		}
		if !dir[i].inUse {
			free = append(free, PageID(i+1))
		}
	}
	p.dir, p.free = dir, free
	return nil
}

// Path returns the file path backing the pager.
func (p *FilePager) Path() string { return p.path }

// PageSize returns the configured page size in bytes.
func (p *FilePager) PageSize() int { return p.pageSize }

// DiskStats returns the number of pages physically read from and written to
// the file so far (as opposed to the simulated node-access counters, which
// count logical accesses whether or not they hit a buffer).
func (p *FilePager) DiskStats() (reads, writes int64) {
	return atomic.LoadInt64(&p.reads), atomic.LoadInt64(&p.writes)
}

func (p *FilePager) slotOffset(id PageID) int64 {
	return fileHeaderBytes + int64(id-1)*int64(slotHeaderBytes+p.pageSize)
}

// Allocate reserves a new page of the given kind and returns its id, reusing
// freed slots when available.
func (p *FilePager) Allocate(kind PageKind) (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return InvalidPage, ErrPagerClosed
	}
	if p.readonly {
		return InvalidPage, ErrReadOnlyFS
	}
	if err := p.ensureDirLocked(); err != nil {
		return InvalidPage, err
	}
	var id PageID
	appended := false
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		id = p.appendSlotLocked()
		appended = true
	}
	if err := p.claimSlotLocked(id, kind, appended); err != nil {
		return InvalidPage, err
	}
	return id, nil
}

// AllocateRun reserves n consecutively numbered pages of the given kind and
// returns the first id. It prefers a contiguous run from the free list and
// falls back to appending fresh slots at the end of the file, so callers
// that store a region as (first page, page count) — the snapshot's node
// index and clip table — keep working after pages have been freed and
// reused in arbitrary order.
func (p *FilePager) AllocateRun(kind PageKind, n int) (PageID, error) {
	if n <= 0 {
		return InvalidPage, fmt.Errorf("storage: AllocateRun of %d pages", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return InvalidPage, ErrPagerClosed
	}
	if p.readonly {
		return InvalidPage, ErrReadOnlyFS
	}
	if err := p.ensureDirLocked(); err != nil {
		return InvalidPage, err
	}
	if first, ok := p.takeFreeRunLocked(n); ok {
		for i := 0; i < n; i++ {
			if err := p.claimSlotLocked(first+PageID(i), kind, false); err != nil {
				return InvalidPage, err
			}
		}
		return first, nil
	}
	first := PageID(len(p.dir) + 1)
	for i := 0; i < n; i++ {
		id := p.appendSlotLocked()
		if err := p.claimSlotLocked(id, kind, true); err != nil {
			return InvalidPage, err
		}
	}
	return first, nil
}

// takeFreeRunLocked removes a run of n consecutive page ids from the free
// list if one exists, returning its first id.
func (p *FilePager) takeFreeRunLocked(n int) (PageID, bool) {
	if len(p.free) < n {
		return InvalidPage, false
	}
	sorted := append([]PageID(nil), p.free...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	run := 1
	for i := 0; i < len(sorted); i++ {
		if i > 0 && sorted[i] == sorted[i-1]+1 {
			run++
		} else {
			run = 1
		}
		if run < n {
			continue
		}
		first := sorted[i] - PageID(n-1)
		kept := p.free[:0]
		for _, id := range p.free {
			if id < first || id >= first+PageID(n) {
				kept = append(kept, id)
			}
		}
		p.free = kept
		return first, true
	}
	return InvalidPage, false
}

// appendSlotLocked grows the slot directory by one and returns the new id.
func (p *FilePager) appendSlotLocked() PageID {
	p.dir = append(p.dir, slotMeta{})
	p.slotCount = len(p.dir)
	return PageID(len(p.dir))
}

// claimSlotLocked marks a slot in use with the given kind: staged in the
// overlay in journal mode, written straight to the file otherwise — except
// for a slot appended since the last flush of appends, which touches memory
// only: its header reaches the file with its payload (Write), or with the
// next Sync or Close (flushAppendsLocked), so the Allocate+Write pattern of
// the snapshot writer pays one write per page.
func (p *FilePager) claimSlotLocked(id PageID, kind PageKind, appended bool) error {
	unwritten := !p.journal && (appended || p.dir[id-1].unwritten)
	p.dir[id-1] = slotMeta{kind: kind, inUse: true, unwritten: unwritten}
	p.dirty = true
	if p.journal {
		p.overlay[id] = &overlayPage{kind: kind, inUse: true}
		return nil
	}
	if unwritten {
		if appended {
			p.appended = append(p.appended, id)
		}
		return nil
	}
	// Only the 16-byte slot header is written here; the payload region is
	// in the file already.
	if _, err := p.f.WriteAt(encodeSlotHeader(kind, true, nil), p.slotOffset(id)); err != nil {
		return fmt.Errorf("storage: allocating page %d: %w", id, err)
	}
	return nil
}

// flushAppendsLocked makes the slots appended since the last flush whole in
// the file: it extends the file over them once, then writes the headers of
// the ones claimed but never written (a free slot's is all zero).
func (p *FilePager) flushAppendsLocked() error {
	if len(p.appended) == 0 {
		return nil
	}
	if p.committedSlots < p.slotCount {
		if err := p.f.Truncate(p.slotOffset(PageID(p.slotCount) + 1)); err != nil {
			return fmt.Errorf("storage: extending file to %d pages: %w", p.slotCount, err)
		}
		p.committedSlots = p.slotCount
	}
	for _, id := range p.appended {
		m := &p.dir[id-1]
		if m.unwritten && m.inUse {
			if _, err := p.f.WriteAt(encodeSlotHeader(m.kind, true, nil), p.slotOffset(id)); err != nil {
				return fmt.Errorf("storage: allocating page %d: %w", id, err)
			}
		}
		m.unwritten = false
	}
	p.appended = p.appended[:0]
	return nil
}

// writeSlotLocked writes a slot header and payload; p.mu must be held.
func (p *FilePager) writeSlotLocked(id PageID, kind PageKind, payload []byte) error {
	buf := make([]byte, slotHeaderBytes+p.pageSize)
	copy(buf, encodeSlotHeader(kind, true, payload))
	copy(buf[slotHeaderBytes:], payload)
	if _, err := p.f.WriteAt(buf, p.slotOffset(id)); err != nil {
		return fmt.Errorf("storage: writing page %d: %w", id, err)
	}
	atomic.AddInt64(&p.writes, 1)
	return nil
}

// Write stores the payload in the page. The payload must fit in one page.
func (p *FilePager) Write(id PageID, payload []byte) error {
	if len(payload) > p.pageSize {
		return fmt.Errorf("%w: %d > %d", ErrPageTooLarge, len(payload), p.pageSize)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPagerClosed
	}
	if p.readonly {
		return ErrReadOnlyFS
	}
	if err := p.ensureDirLocked(); err != nil {
		return err
	}
	if id < 1 || int(id) > len(p.dir) || !p.dir[id-1].inUse {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	kind := p.dir[id-1].kind
	if p.journal {
		p.overlay[id] = &overlayPage{kind: kind, inUse: true, data: append([]byte(nil), payload...)}
	} else if err := p.writeSlotLocked(id, kind, payload); err != nil {
		return err
	}
	if p.dir[id-1].unwritten {
		// The whole slot, header and all, is in the file now.
		p.dir[id-1].unwritten = false
		p.committedSlots = max(p.committedSlots, int(id))
	}
	p.dir[id-1].length = len(payload)
	p.dirty = true
	return nil
}

// Read returns a copy of the page payload and its kind, verifying the slot
// header and payload checksum straight off disk — it needs no directory, so
// a freshly opened pager serves its first read with a single page access.
// The disk access happens outside the pager lock.
func (p *FilePager) Read(id PageID) ([]byte, PageKind, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, 0, ErrPagerClosed
	}
	count := p.slotCount
	if int(id) <= len(p.dir) && id >= 1 && p.dir[id-1].unwritten {
		// Appended and not written: the file does not hold it yet.
		m := p.dir[id-1]
		p.mu.Unlock()
		if !m.inUse {
			return nil, 0, fmt.Errorf("%w: %d", ErrPageNotFound, id)
		}
		return []byte{}, m.kind, nil
	}
	if ov, ok := p.overlay[id]; ok {
		// The page is staged (journal mode) or recovered from a committed WAL
		// on read-only media: the overlay image is the current truth.
		if !ov.inUse {
			p.mu.Unlock()
			return nil, 0, fmt.Errorf("%w: %d", ErrPageNotFound, id)
		}
		out := append([]byte(nil), ov.data...)
		kind := ov.kind
		p.mu.Unlock()
		return out, kind, nil
	}
	p.mu.Unlock()
	if id < 1 || int(id) > count {
		return nil, 0, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}

	buf := make([]byte, slotHeaderBytes+p.pageSize)
	if _, err := p.f.ReadAt(buf, p.slotOffset(id)); err != nil {
		return nil, 0, fmt.Errorf("storage: reading page %d: %w", id, err)
	}
	atomic.AddInt64(&p.reads, 1)
	return decodeSlot(buf, p.pageSize, id)
}

// Free releases a page for reuse.
func (p *FilePager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPagerClosed
	}
	if p.readonly {
		return ErrReadOnlyFS
	}
	if err := p.ensureDirLocked(); err != nil {
		return err
	}
	if id < 1 || int(id) > len(p.dir) || !p.dir[id-1].inUse {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	unwritten := p.dir[id-1].unwritten
	if p.journal {
		p.overlay[id] = &overlayPage{kind: p.dir[id-1].kind, inUse: false}
	} else if !unwritten {
		hdr := encodeSlotHeader(p.dir[id-1].kind, false, nil)
		if _, err := p.f.WriteAt(hdr, p.slotOffset(id)); err != nil {
			return fmt.Errorf("storage: freeing page %d: %w", id, err)
		}
	}
	p.dir[id-1] = slotMeta{unwritten: unwritten}
	p.free = append(p.free, id)
	p.dirty = true
	return nil
}

// Usage returns a storage breakdown by page kind. It sums Slots, so the
// first call on a freshly opened pager is O(page count); it is empty when the
// slot directory cannot be read.
func (p *FilePager) Usage() Usage {
	slots, _ := p.Slots()
	return usageOf(slots)
}

// Sync flushes the file to stable storage, rewriting the file header first
// if pages were allocated or freed since the last sync. On a read-only
// pager it is a no-op.
func (p *FilePager) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPagerClosed
	}
	return p.syncLocked()
}

func (p *FilePager) syncLocked() error {
	if p.readonly {
		return nil
	}
	if err := p.writeHeaderLocked(); err != nil {
		return err
	}
	return p.f.Sync()
}

// writeHeaderLocked makes the slots appended since the last call whole in
// the file and rewrites the header of a pager that allocated or freed pages;
// a journaled pager's header changes only through CommitJournal.
func (p *FilePager) writeHeaderLocked() error {
	if p.journal || !p.dirty {
		return nil
	}
	if err := p.flushAppendsLocked(); err != nil {
		return err
	}
	if _, err := p.f.WriteAt(encodeFileHeader(p.pageSize, uint64(p.slotCount)), 0); err != nil {
		return err
	}
	p.dirty = false
	return nil
}

// EnableJournal switches the pager into journal mode: every Allocate, Write,
// and Free from now on is staged in an in-memory overlay (the dirty-page
// set) and reaches the file only through CommitJournal, which makes the
// whole batch atomic via the write-ahead log. Reads see staged state
// immediately. EnableJournal fails on a read-only pager; enabling an already
// journaled pager is a no-op.
//
// Enabling the journal is O(1): the slot directory and free list are NOT
// scanned here — they are still built lazily, by the first operation that
// genuinely needs them (Allocate, Write, Free, Usage) — so a writable Open
// of an arbitrarily large snapshot stays constant-time.
func (p *FilePager) EnableJournal() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPagerClosed
	}
	if p.readonly {
		return ErrReadOnlyFS
	}
	if p.journal {
		return nil
	}
	// The journal stages pages over a file that holds every slot.
	if err := p.flushAppendsLocked(); err != nil {
		return err
	}
	p.journal = true
	p.overlay = make(map[PageID]*overlayPage)
	return nil
}

// CommitJournal atomically applies every staged page mutation to the file:
// the page images are written to the write-ahead log and fsynced first, then
// applied to the page file and fsynced, then the log is removed. If the
// process dies at any point, the next OpenFilePager either replays the
// committed log or discards a torn one — the file is never left half
// written. On a pager with nothing staged it degenerates to Sync.
func (p *FilePager) CommitJournal() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPagerClosed
	}
	if !p.journal || len(p.overlay) == 0 {
		return p.syncLocked()
	}
	records := make([]WALRecord, 0, len(p.overlay))
	for id, ov := range p.overlay {
		records = append(records, WALRecord{Page: id, Kind: ov.kind, InUse: ov.inUse, Payload: ov.data})
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Page < records[j].Page })
	walPath := WALPathFor(p.path)
	if err := writeWALFile(walPath, p.pageSize, p.slotCount, records); err != nil {
		return err
	}
	p.walFsyncs++ // the whole batch just became durable with one WAL fsync
	// From here on the transaction is durable: a crash replays the WAL on
	// the next open, so every failure below leaves a recoverable file.
	if err := p.applyRecordsLocked(records, p.slotCount); err != nil {
		return err
	}
	if err := Remove(walPath); err != nil {
		return err
	}
	p.overlay = make(map[PageID]*overlayPage)
	p.dirty = false
	p.commits++
	p.commitPages += int64(len(records))
	return nil
}

// CommitStats is the group-commit accounting of a journaled FilePager: how
// many CommitJournal calls carried staged pages, how many page images they
// wrote in total, and how many WAL fsyncs that cost. WALFsyncs equals
// Commits by construction — a whole batch, however many pages, becomes
// durable with exactly one WAL write + fsync — so Pages/WALFsyncs is the
// group-commit amortisation factor.
type CommitStats struct {
	Commits   int64
	Pages     int64
	WALFsyncs int64
}

// CommitStats returns the pager's group-commit counters.
func (p *FilePager) CommitStats() CommitStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return CommitStats{Commits: p.commits, Pages: p.commitPages, WALFsyncs: p.walFsyncs}
}

// DiscardJournal drops every staged page mutation, returning the pager to
// the last committed state. The slot directory and free list are rebuilt
// from the file on next use.
func (p *FilePager) DiscardJournal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.journal {
		return
	}
	p.overlay = make(map[PageID]*overlayPage)
	p.dir, p.free = nil, nil
	p.slotCount = p.committedSlots
	p.dirty = false
}

// applyRecordsLocked writes page images straight into the file — the apply
// phase of a commit and of WAL replay on open — then extends the file to the
// full slot region, rewrites the file header, and fsyncs. It is idempotent:
// replaying the same records again produces the same bytes.
func (p *FilePager) applyRecordsLocked(records []WALRecord, slotCount int) error {
	// Extend the file to its final size up front: every later write then
	// lands inside the file, so a crash mid-apply can never leave a
	// partial trailing slot that the next open would reject before it even
	// looks at the WAL.
	want := fileHeaderBytes + int64(slotCount)*int64(slotHeaderBytes+p.pageSize)
	if st, err := p.f.Stat(); err != nil {
		return err
	} else if st.Size() < want {
		if err := p.f.Truncate(want); err != nil {
			return err
		}
	}
	for _, r := range records {
		if r.InUse {
			if err := p.writeSlotLocked(r.Page, r.Kind, r.Payload); err != nil {
				return err
			}
		} else {
			hdr := encodeSlotHeader(r.Kind, false, nil)
			if _, err := p.f.WriteAt(hdr, p.slotOffset(r.Page)); err != nil {
				return fmt.Errorf("storage: freeing page %d: %w", r.Page, err)
			}
		}
	}
	if _, err := p.f.WriteAt(encodeFileHeader(p.pageSize, uint64(slotCount)), 0); err != nil {
		return err
	}
	if err := p.f.Sync(); err != nil {
		return err
	}
	if slotCount > p.committedSlots {
		p.committedSlots = slotCount
	}
	if slotCount > p.slotCount {
		p.slotCount = slotCount
	}
	return nil
}

// Close syncs (when the pager has unflushed writes) and closes the file; a
// read-only or untouched pager leaves the file bytes and mtime unchanged.
// On a journaled pager, staged pages that were never committed are
// discarded — call CommitJournal first to keep them. Subsequent operations
// fail with ErrPagerClosed. Close is idempotent.
func (p *FilePager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	err := p.syncLocked()
	if cerr := p.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadOnlyFile reports whether the pager fell back to a read-only open and
// therefore rejects mutations with ErrReadOnlyFS.
func (p *FilePager) ReadOnlyFile() bool { return p.readonly }

// Slots returns the state of every page slot, building the slot directory
// if needed (O(page count) on first call). Staged journal state is included.
func (p *FilePager) Slots() ([]Slot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPagerClosed
	}
	if err := p.ensureDirLocked(); err != nil {
		return nil, err
	}
	out := make([]Slot, len(p.dir))
	for i, m := range p.dir {
		out[i] = Slot{ID: PageID(i + 1), Kind: m.kind, InUse: m.inUse, Length: m.length}
	}
	return out, nil
}
