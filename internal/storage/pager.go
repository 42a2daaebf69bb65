package storage

import (
	"errors"
	"fmt"
)

// PageID identifies a fixed-size page in a PageStore. Zero is never a valid
// id.
type PageID uint64

// InvalidPage is the zero PageID, never returned by Allocate.
const InvalidPage PageID = 0

// DefaultPageSize is the page size used by the benchmark configuration of
// the paper's R-tree implementations (4 KiB disk pages).
const DefaultPageSize = 4096

// Common page-store errors.
var (
	ErrPageNotFound = errors.New("storage: page not found")
	ErrPageTooLarge = errors.New("storage: payload exceeds page size")
	ErrPagerClosed  = errors.New("storage: pager is closed")
)

// PageKind distinguishes directory pages, leaf pages, and auxiliary pages
// (the clip table of Figure 4b) for storage-breakdown accounting.
type PageKind uint8

// Page kinds.
const (
	KindDirectory PageKind = iota
	KindLeaf
	KindAux
)

// String names the page kind.
func (k PageKind) String() string {
	switch k {
	case KindDirectory:
		return "directory"
	case KindLeaf:
		return "leaf"
	case KindAux:
		return "aux"
	default:
		return fmt.Sprintf("PageKind(%d)", uint8(k))
	}
}

// PageStore is the page-store contract every layer above storage is written
// against: fixed-size pages identified by PageID, each tagged with a PageKind
// for storage-breakdown accounting. It has three implementations, all over
// one page file format — Image (the file held in a byte slice), FilePager
// (the file on disk) and the read-only MmapStore (an Image over a mapping,
// whose mutators all answer ErrReadOnlyFS) — and all must be safe for
// concurrent use. What an implementation offers beyond the contract is
// reached through its concrete type: journaling, commit statistics and crash
// fail-points (FilePager), Slots for inspection (all three),
// DiskStats/ReadOnlyFile (FilePager, MmapStore), stream export
// (Image.WriteTo).
type PageStore interface {
	// PageSize returns the page size in bytes; payloads may not exceed it.
	PageSize() int
	// Allocate reserves a new page of the given kind and returns its id.
	Allocate(kind PageKind) (PageID, error)
	// AllocateRun reserves n consecutively numbered pages of the given kind
	// and returns the first id: regions stored as (first page, page count)
	// need contiguous ids even when the free list holds scattered pages.
	AllocateRun(kind PageKind, n int) (PageID, error)
	// Write stores the payload in the page (payload must fit in one page).
	Write(id PageID, payload []byte) error
	// Read returns the page payload and its kind. The payload must not be
	// modified: MmapStore returns a view of its mapping.
	Read(id PageID) ([]byte, PageKind, error)
	// Free releases a page for reuse.
	Free(id PageID) error
	// Usage returns a storage breakdown by page kind.
	Usage() Usage
}

// WriteChunked spreads buf over a run of consecutively numbered auxiliary
// pages and returns the first page id and the page count (0, 0 for an empty
// buffer). It is the one writer of multi-page aux regions: the snapshot's
// node index, its clip table (Figure 4b), and clipindex.Index.SaveAux.
func WriteChunked(store PageStore, buf []byte) (first PageID, pages int, err error) {
	if len(buf) == 0 {
		return InvalidPage, 0, nil
	}
	pageSize := store.PageSize()
	pages = (len(buf) + pageSize - 1) / pageSize
	if first, err = store.AllocateRun(KindAux, pages); err != nil {
		return InvalidPage, 0, err
	}
	for i := 0; i < pages; i++ {
		chunk := buf[i*pageSize : min((i+1)*pageSize, len(buf))]
		if err := store.Write(first+PageID(i), chunk); err != nil {
			return InvalidPage, 0, err
		}
	}
	return first, pages, nil
}

// ReadChunked reassembles the region WriteChunked laid out: exactly want
// bytes from pages consecutive aux pages starting at first. The arguments
// come from a file header, so they are checked, not trusted.
func ReadChunked(store PageStore, first PageID, pages, want int) ([]byte, error) {
	if want < 0 || pages < 0 || want > pages*store.PageSize() {
		return nil, fmt.Errorf("%w: implausible chunked region (%d bytes in %d pages)", ErrCorrupt, want, pages)
	}
	// Grow as real pages arrive instead of trusting the header's size.
	buf := make([]byte, 0, min(want, 1<<20))
	for i := 0; i < pages; i++ {
		payload, kind, err := store.Read(first + PageID(i))
		if err != nil {
			return nil, err
		}
		if kind != KindAux {
			return nil, fmt.Errorf("%w: page %d is %v, expected aux", ErrCorrupt, first+PageID(i), kind)
		}
		buf = append(buf, payload...)
	}
	if len(buf) < want {
		return nil, fmt.Errorf("%w: chunked region holds %d bytes, expected %d", ErrCorrupt, len(buf), want)
	}
	return buf[:want], nil
}

// Slot describes one page slot of the file for integrity checks (cbbinspect
// -verify): its id, kind, whether it is in use, and its payload length.
type Slot struct {
	ID     PageID
	Kind   PageKind
	InUse  bool
	Length int
}

// Usage describes how many pages and payload bytes of each kind are in use.
type Usage struct {
	Pages      map[PageKind]int
	Bytes      map[PageKind]int
	TotalPages int
	TotalBytes int
}

// usageOf sums the in-use slots of a slot listing by page kind: every
// store's Usage is its Slots, summed.
func usageOf(slots []Slot) Usage {
	u := Usage{Pages: make(map[PageKind]int), Bytes: make(map[PageKind]int)}
	for _, s := range slots {
		if s.InUse {
			u.Pages[s.Kind]++
			u.Bytes[s.Kind] += s.Length
			u.TotalPages++
			u.TotalBytes += s.Length
		}
	}
	return u
}
