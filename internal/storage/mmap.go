package storage

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
)

// ErrMmapUnsupported is returned by OpenMmapStore on platforms without
// memory-mapped file support (the build's fallback stub); callers degrade to
// OpenFilePagerReadOnly.
var ErrMmapUnsupported = errors.New("storage: mmap is not supported on this platform")

// MmapStore is a strictly read-only PageStore serving pages straight out of
// a memory-mapped page file. Where FilePager.Read issues a pread and copies
// the payload into a fresh buffer, MmapStore.Read returns a subslice of the
// mapping: no read syscall, no copy, and cold pages are faulted in by the
// kernel on first touch — the zero-copy path that lets a beyond-RAM snapshot
// be queried with the OS page cache as the only buffer. Payload checksums are
// still verified on every read, so integrity matches the pread path.
//
// Slices returned by Read alias the mapping. They are valid until Close and
// must be treated as immutable — writing through one faults (the mapping is
// PROT_READ). All mutating PageStore operations return ErrReadOnlyFS.
//
// Opening replays a committed write-ahead log next to the file through the
// same walOverlay as OpenFilePagerReadOnly, so the two read-only stores agree
// on every file + log pair; overlay pages are served from heap copies, file
// pages from the mapping.
type MmapStore struct {
	path      string
	data      []byte // the mapping; nil only after Close
	pageSize  int
	fileSlots int // slots physically present in the file
	slotCount int // including WAL-appended slots visible via the overlay
	overlay   map[PageID]*overlayPage
	reads     atomic.Int64
	closed    atomic.Bool
}

var _ PageStore = (*MmapStore)(nil)

// OpenMmapStore maps the page file at path read-only. It fails with
// ErrMmapUnsupported on platforms without mmap and with the usual corruption
// errors on a malformed file.
func OpenMmapStore(path string) (*MmapStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < fileHeaderBytes {
		return nil, fmt.Errorf("%w: page file smaller than its header", ErrCorrupt)
	}
	data, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*MmapStore, error) {
		munmapFile(data)
		return nil, err
	}
	pageSize, _, err := decodeFileHeader(data[:fileHeaderBytes])
	if err != nil {
		return fail(err)
	}
	slotSize := slotHeaderBytes + pageSize
	m := &MmapStore{
		path:      path,
		data:      data,
		pageSize:  pageSize,
		fileSlots: int((st.Size() - fileHeaderBytes) / int64(slotSize)),
	}
	if m.overlay, m.slotCount, err = walOverlay(WALPathFor(path), pageSize, m.fileSlots); err != nil {
		return fail(err)
	}
	return m, nil
}

// Path returns the file path the store was opened from.
func (m *MmapStore) Path() string { return m.path }

// PageSize returns the page size recorded in the file header.
func (m *MmapStore) PageSize() int { return m.pageSize }

// ReadOnlyFile reports that the store never mutates its file (always true).
func (m *MmapStore) ReadOnlyFile() bool { return true }

// DiskStats returns the number of pages served and written (always 0 writes);
// the reads counter mirrors FilePager.DiskStats so experiments can report
// page-access counts uniformly across backends.
func (m *MmapStore) DiskStats() (reads, writes int64) { return m.reads.Load(), 0 }

// Read returns the page payload and kind. The returned slice aliases the
// mapping (or the WAL overlay) and must not be modified; it stays valid until
// Close.
func (m *MmapStore) Read(id PageID) ([]byte, PageKind, error) {
	if m.closed.Load() {
		return nil, 0, ErrPagerClosed
	}
	if op, ok := m.overlay[id]; ok {
		if !op.inUse {
			return nil, 0, fmt.Errorf("%w: %d", ErrPageNotFound, id)
		}
		m.reads.Add(1)
		return op.data, op.kind, nil
	}
	if id < 1 || int(id) > m.fileSlots {
		return nil, 0, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	off := fileHeaderBytes + int(id-1)*(slotHeaderBytes+m.pageSize)
	slot := m.data[off:]
	meta, crc, err := decodeSlotHeader(slot[:slotHeaderBytes], m.pageSize)
	if err != nil {
		return nil, 0, err
	}
	if !meta.inUse {
		return nil, 0, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	payload := slot[slotHeaderBytes : slotHeaderBytes+meta.length]
	if checksum(payload) != crc {
		return nil, 0, fmt.Errorf("%w: page %d checksum mismatch", ErrCorrupt, id)
	}
	m.reads.Add(1)
	return payload, meta.kind, nil
}

// Allocate always fails: the mapping is read-only.
func (m *MmapStore) Allocate(kind PageKind) (PageID, error) { return InvalidPage, ErrReadOnlyFS }

// AllocateRun always fails: the mapping is read-only.
func (m *MmapStore) AllocateRun(kind PageKind, n int) (PageID, error) {
	return InvalidPage, ErrReadOnlyFS
}

// Write always fails: the mapping is read-only.
func (m *MmapStore) Write(id PageID, payload []byte) error { return ErrReadOnlyFS }

// Free always fails: the mapping is read-only.
func (m *MmapStore) Free(id PageID) error { return ErrReadOnlyFS }

// Usage scans the slot headers (not the payloads, so it does not fault the
// whole file in) and returns the storage breakdown by page kind; like
// FilePager.Usage it is empty when the slot directory cannot be read.
func (m *MmapStore) Usage() Usage {
	u := Usage{Pages: make(map[PageKind]int), Bytes: make(map[PageKind]int)}
	slots, _ := m.Slots()
	for _, s := range slots {
		if s.InUse {
			u.add(s.Kind, s.Length)
		}
	}
	return u
}

// Slots lists every page slot for integrity checks, mirroring
// FilePager.Slots.
func (m *MmapStore) Slots() ([]Slot, error) {
	if m.closed.Load() {
		return nil, ErrPagerClosed
	}
	slots := make([]Slot, 0, m.slotCount)
	for i := 0; i < m.slotCount; i++ {
		id := PageID(i + 1)
		if op, ok := m.overlay[id]; ok {
			slots = append(slots, Slot{ID: id, Kind: op.kind, InUse: op.inUse, Length: len(op.data)})
			continue
		}
		if i >= m.fileSlots {
			slots = append(slots, Slot{ID: id})
			continue
		}
		off := fileHeaderBytes + i*(slotHeaderBytes+m.pageSize)
		meta, _, err := decodeSlotHeader(m.data[off:off+slotHeaderBytes], m.pageSize)
		if err != nil {
			return nil, err
		}
		slots = append(slots, Slot{ID: id, Kind: meta.kind, InUse: meta.inUse, Length: meta.length})
	}
	return slots, nil
}

// Close unmaps the file. Slices previously returned by Read become invalid;
// the caller must ensure no reads are in flight.
func (m *MmapStore) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	data := m.data
	m.data = nil
	return munmapFile(data)
}
