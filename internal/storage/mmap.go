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
// a memory-mapped page file: a read-only Image over the mapping plus the
// write-ahead-log overlay. Where FilePager.Read issues a pread and copies
// the payload into a fresh buffer, MmapStore.Read takes no lock and returns a
// subslice of the mapping: no read syscall, no copy, and cold pages are
// faulted in by the kernel on first touch — the zero-copy path that lets a
// beyond-RAM snapshot be queried with the OS page cache as the only buffer.
// Payload checksums are still verified on every read by the same slot reader
// as the pread path.
//
// Slices returned by Read alias the mapping. They are valid until Close and
// must be treated as immutable — writing through one faults (the mapping is
// PROT_READ). All mutating PageStore operations return ErrReadOnlyFS.
//
// Opening runs the same file checks as OpenFilePagerReadOnly and replays a
// committed write-ahead log next to the file through the same walOverlay, so
// the two read-only stores agree on every file + log pair; overlay pages are
// served from heap copies, file pages from the mapping. It opens its file
// through os, not the FS seam (fs.go): it writes nothing, and the mapping
// needs a descriptor.
type MmapStore struct {
	img       Image // over the mapping; never written, its data nil after Close
	slotCount int   // including WAL-appended slots visible via the overlay
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
	pageSize, slots, size, err := statPageFile(f)
	if err != nil {
		return nil, err
	}
	data, err := mmapFile(f, size)
	if err != nil {
		return nil, err
	}
	m := &MmapStore{img: Image{pageSize: pageSize, data: data}}
	if m.overlay, m.slotCount, err = walOverlay(WALPathFor(path), pageSize, slots); err != nil {
		munmapFile(data)
		return nil, err
	}
	return m, nil
}

// PageSize returns the page size recorded in the file header.
func (m *MmapStore) PageSize() int { return m.img.pageSize }

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
	payload, kind, err := m.img.page(id)
	if err != nil {
		return nil, 0, err
	}
	m.reads.Add(1)
	return payload, kind, nil
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
	slots, _ := m.Slots()
	return usageOf(slots)
}

// Slots lists every page slot for integrity checks, mirroring
// FilePager.Slots: the mapping's slots with the WAL overlay folded in.
func (m *MmapStore) Slots() ([]Slot, error) {
	if m.closed.Load() {
		return nil, ErrPagerClosed
	}
	slots, err := m.img.Slots()
	if err != nil {
		return nil, err
	}
	for id := PageID(len(slots) + 1); int(id) <= m.slotCount; id++ {
		slots = append(slots, Slot{ID: id})
	}
	for id, op := range m.overlay {
		slots[id-1] = Slot{ID: id, Kind: op.kind, InUse: op.inUse, Length: len(op.data)}
	}
	return slots, nil
}

// Close unmaps the file. Slices previously returned by Read become invalid;
// the caller must ensure no reads are in flight.
func (m *MmapStore) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	data := m.img.data
	m.img.Close()
	return munmapFile(data)
}
