package storage

import (
	"errors"
	"fmt"
	"sync"
)

// PageID identifies a fixed-size page in a Pager. Zero is never a valid id.
type PageID uint64

// InvalidPage is the zero PageID, never returned by Allocate.
const InvalidPage PageID = 0

// DefaultPageSize is the page size used by the benchmark configuration of
// the paper's R-tree implementations (4 KiB disk pages).
const DefaultPageSize = 4096

// Common pager errors.
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
// for storage-breakdown accounting. It has three implementations — the
// in-memory Pager, the on-disk FilePager, and the read-only MmapStore, whose
// mutators all answer ErrReadOnlyFS — and all must be safe for concurrent
// use. What an implementation offers beyond the contract is reached through
// its concrete type: journaling, commit statistics and crash fail-points
// (FilePager), Slots/DiskStats/ReadOnlyFile for inspection (FilePager,
// MmapStore), stream export (Pager.WriteTo).
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

type page struct {
	kind PageKind
	data []byte
}

// Pager is an in-memory simulation of a paged disk file: it hands out
// fixed-size pages, tracks how many bytes of each kind are in use, and
// rejects payloads that do not fit a page. It is safe for concurrent use.
type Pager struct {
	mu       sync.RWMutex
	pageSize int
	next     PageID
	pages    map[PageID]*page
	closed   bool
}

// NewPager creates a pager with the given page size (DefaultPageSize when
// pageSize <= 0).
func NewPager(pageSize int) *Pager {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Pager{pageSize: pageSize, next: 1, pages: make(map[PageID]*page)}
}

// PageSize returns the configured page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// Allocate reserves a new page of the given kind and returns its id.
func (p *Pager) Allocate(kind PageKind) (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return InvalidPage, ErrPagerClosed
	}
	id := p.next
	p.next++
	p.pages[id] = &page{kind: kind}
	return id, nil
}

// AllocateRun reserves n consecutively numbered pages of the given kind and
// returns the first id. The in-memory pager never reuses ids, so the run is
// always the next n ids.
func (p *Pager) AllocateRun(kind PageKind, n int) (PageID, error) {
	if n <= 0 {
		return InvalidPage, fmt.Errorf("storage: AllocateRun of %d pages", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return InvalidPage, ErrPagerClosed
	}
	first := p.next
	for i := 0; i < n; i++ {
		p.pages[p.next] = &page{kind: kind}
		p.next++
	}
	return first, nil
}

// Write stores the payload in the page. The payload must fit in one page.
func (p *Pager) Write(id PageID, payload []byte) error {
	if len(payload) > p.pageSize {
		return fmt.Errorf("%w: %d > %d", ErrPageTooLarge, len(payload), p.pageSize)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPagerClosed
	}
	pg, ok := p.pages[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	pg.data = append(pg.data[:0], payload...)
	return nil
}

// Read returns a copy of the page payload and its kind.
func (p *Pager) Read(id PageID) ([]byte, PageKind, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, 0, ErrPagerClosed
	}
	pg, ok := p.pages[id]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	out := make([]byte, len(pg.data))
	copy(out, pg.data)
	return out, pg.kind, nil
}

// Free releases a page.
func (p *Pager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPagerClosed
	}
	if _, ok := p.pages[id]; !ok {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	delete(p.pages, id)
	return nil
}

// Close releases all pages; subsequent operations fail with ErrPagerClosed.
func (p *Pager) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.pages = nil
}

// Usage describes how many pages and payload bytes of each kind are in use.
type Usage struct {
	Pages      map[PageKind]int
	Bytes      map[PageKind]int
	TotalPages int
	TotalBytes int
}

// Usage returns a storage breakdown by page kind (used by the Figure 13
// experiment). Bytes counts actual payload bytes; PageBytes (pages × page
// size) can be derived by the caller.
func (p *Pager) Usage() Usage {
	p.mu.RLock()
	defer p.mu.RUnlock()
	u := Usage{Pages: make(map[PageKind]int), Bytes: make(map[PageKind]int)}
	for _, pg := range p.pages {
		u.add(pg.kind, len(pg.data))
	}
	return u
}

// add counts one in-use page of the given kind and payload length.
func (u *Usage) add(kind PageKind, length int) {
	u.Pages[kind]++
	u.Bytes[kind] += length
	u.TotalPages++
	u.TotalBytes += length
}
