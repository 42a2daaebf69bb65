package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Image is a page file held in a byte slice, in exactly the layout FilePager
// keeps on disk: WriteTo streams its bytes as they are, and ReadImage,
// OpenFilePager and OpenMmapStore all accept them. Page ids are append-only —
// a freed page's slot is zeroed and its id never handed out again — and Read
// returns a copy. It is the in-memory page store behind the snapshot stream
// (snapshot.SaveTo/LoadFrom) and the Figure 13 storage breakdown, and
// MmapStore serves a read-only Image over its mapping. It is safe for
// concurrent use.
type Image struct {
	mu       sync.RWMutex
	pageSize int
	data     []byte // file header, then whole slots; nil once closed
}

var _ PageStore = (*Image)(nil)

// NewImage returns an empty page file with the given page size
// (DefaultPageSize when pageSize <= 0).
func NewImage(pageSize int) *Image {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Image{pageSize: pageSize, data: encodeFileHeader(pageSize, 0)}
}

// ReadImage reads a page file stream — Image.WriteTo's output or a
// FilePager's file — into a new Image, verifying the header, that the stream
// holds whole slots, and every in-use page's checksum. Page ids are
// preserved.
func ReadImage(r io.Reader) (*Image, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("storage: reading page file: %w", err)
	}
	pageSize, slots, err := checkPageFile(data, int64(len(data)))
	if err != nil {
		return nil, err
	}
	im := &Image{pageSize: pageSize, data: data}
	for id := PageID(1); int(id) <= slots; id++ {
		if _, _, err := im.page(id); err != nil && !errors.Is(err, ErrPageNotFound) {
			return nil, err
		}
	}
	return im, nil
}

// PageSize returns the page size in bytes.
func (im *Image) PageSize() int { return im.pageSize }

// slotCount returns the number of slots, in use or free.
func (im *Image) slotCount() int {
	return max(len(im.data)-fileHeaderBytes, 0) / (slotHeaderBytes + im.pageSize)
}

// slot returns the bytes of page id's slot, or nil when id names no slot.
func (im *Image) slot(id PageID) []byte {
	if id < 1 || id > PageID(im.slotCount()) {
		return nil
	}
	size := slotHeaderBytes + im.pageSize
	off := fileHeaderBytes + int(id-1)*size
	return im.data[off : off+size]
}

// page returns page id's payload, a view of the image, and its kind. The
// caller holds im.mu or owns an image nothing writes to (MmapStore's).
func (im *Image) page(id PageID) ([]byte, PageKind, error) {
	s := im.slot(id)
	if s == nil {
		return nil, 0, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	return decodeSlot(s, im.pageSize, id)
}

// inUse returns page id's slot when the page is allocated, nil otherwise;
// im.mu must be held.
func (im *Image) inUse(id PageID) []byte {
	s := im.slot(id)
	if s == nil {
		return nil
	}
	if m, _, err := decodeSlotHeader(s, im.pageSize); err != nil || !m.inUse {
		return nil
	}
	return s
}

// Allocate reserves a new page of the given kind and returns its id.
func (im *Image) Allocate(kind PageKind) (PageID, error) { return im.AllocateRun(kind, 1) }

// AllocateRun appends n slots of the given kind and returns the first id;
// ids are never reused, so the run is always the next n.
func (im *Image) AllocateRun(kind PageKind, n int) (PageID, error) {
	if n <= 0 {
		return InvalidPage, fmt.Errorf("storage: AllocateRun of %d pages", n)
	}
	im.mu.Lock()
	defer im.mu.Unlock()
	if im.data == nil {
		return InvalidPage, ErrPagerClosed
	}
	first := PageID(im.slotCount() + 1)
	im.data = append(im.data, make([]byte, n*(slotHeaderBytes+im.pageSize))...)
	for id := first; id < first+PageID(n); id++ {
		copy(im.slot(id), encodeSlotHeader(kind, true, nil))
	}
	copy(im.data, encodeFileHeader(im.pageSize, uint64(im.slotCount())))
	return first, nil
}

// Write stores the payload in the page. The payload must fit in one page.
func (im *Image) Write(id PageID, payload []byte) error {
	if len(payload) > im.pageSize {
		return fmt.Errorf("%w: %d > %d", ErrPageTooLarge, len(payload), im.pageSize)
	}
	im.mu.Lock()
	defer im.mu.Unlock()
	if im.data == nil {
		return ErrPagerClosed
	}
	s := im.inUse(id)
	if s == nil {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	copy(s, encodeSlotHeader(PageKind(s[0]), true, payload))
	clear(s[slotHeaderBytes+copy(s[slotHeaderBytes:], payload):])
	return nil
}

// Read returns a copy of the page payload and its kind.
func (im *Image) Read(id PageID) ([]byte, PageKind, error) {
	im.mu.RLock()
	defer im.mu.RUnlock()
	if im.data == nil {
		return nil, 0, ErrPagerClosed
	}
	payload, kind, err := im.page(id)
	if err != nil {
		return nil, 0, err
	}
	return bytes.Clone(payload), kind, nil
}

// Free releases a page; its slot is zeroed and its id is not reused.
func (im *Image) Free(id PageID) error {
	im.mu.Lock()
	defer im.mu.Unlock()
	if im.data == nil {
		return ErrPagerClosed
	}
	s := im.inUse(id)
	if s == nil {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	clear(s)
	return nil
}

// Usage returns a storage breakdown by page kind (the Figure 13 experiment).
// Bytes counts payload bytes; pages × page size can be derived by the caller.
func (im *Image) Usage() Usage {
	slots, _ := im.Slots()
	return usageOf(slots)
}

// Slots returns the state of every page slot, mirroring FilePager.Slots.
func (im *Image) Slots() ([]Slot, error) {
	im.mu.RLock()
	defer im.mu.RUnlock()
	if im.data == nil {
		return nil, ErrPagerClosed
	}
	out := make([]Slot, im.slotCount())
	for i := range out {
		id := PageID(i + 1)
		m, _, err := decodeSlotHeader(im.slot(id), im.pageSize)
		if err != nil {
			return nil, fmt.Errorf("page %d: %w", id, err)
		}
		out[i] = Slot{ID: id, Kind: m.kind, InUse: m.inUse, Length: m.length}
	}
	return out, nil
}

// WriteTo streams the page file to w. It implements io.WriterTo.
func (im *Image) WriteTo(w io.Writer) (int64, error) {
	im.mu.RLock()
	defer im.mu.RUnlock()
	if im.data == nil {
		return 0, ErrPagerClosed
	}
	n, err := w.Write(im.data)
	return int64(n), err
}

// Close releases the bytes; subsequent operations fail with ErrPagerClosed.
func (im *Image) Close() {
	im.mu.Lock()
	defer im.mu.Unlock()
	im.data = nil
}
