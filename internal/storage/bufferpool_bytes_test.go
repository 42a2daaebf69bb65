package storage

import "testing"

func TestBufferPoolBytesEviction(t *testing.T) {
	p := newBufferPoolBytes(1000, 1)
	for id := PageID(1); id <= 3; id++ {
		if p.TouchSized(id, 300) {
			t.Fatalf("first touch of page %d was a hit", id)
		}
	}
	if got := p.BytesResident(); got != 900 {
		t.Fatalf("BytesResident = %d, want 900", got)
	}
	// Admitting a fourth 300 B page busts the budget: the LRU (page 1) goes.
	if p.TouchSized(4, 300) {
		t.Fatal("first touch of page 4 was a hit")
	}
	if p.Contains(1) {
		t.Error("page 1 should have been evicted as the LRU")
	}
	for id := PageID(2); id <= 4; id++ {
		if !p.TouchSized(id, 300) {
			t.Errorf("page %d should still be resident", id)
		}
	}
	if got := p.BytesResident(); got > 1000 {
		t.Errorf("BytesResident = %d exceeds the 1000 B budget", got)
	}
}

func TestBufferPoolBytesLRUOrder(t *testing.T) {
	p := newBufferPoolBytes(600, 1)
	p.TouchSized(1, 200)
	p.TouchSized(2, 200)
	p.TouchSized(3, 200)
	p.TouchSized(1, 200) // refresh 1: now 2 is the LRU
	p.TouchSized(4, 200)
	if p.Contains(2) {
		t.Error("page 2 (the LRU) should have been evicted")
	}
	if !p.Contains(1) || !p.Contains(3) || !p.Contains(4) {
		t.Error("recently touched pages were evicted")
	}
}

func TestBufferPoolBytesOversizedPage(t *testing.T) {
	// A single page larger than the whole budget still caches itself: the
	// page just touched is never its own eviction victim.
	p := newBufferPoolBytes(100, 1)
	if p.TouchSized(7, 5000) {
		t.Fatal("first touch was a hit")
	}
	if !p.TouchSized(7, 5000) {
		t.Error("oversized page must stay resident until another touch")
	}
	// The next admission evicts it straight away.
	p.TouchSized(8, 10)
	if p.Contains(7) {
		t.Error("oversized page must be evicted once something else arrives")
	}
	if !p.Contains(8) {
		t.Error("small page must be resident")
	}
}

func TestBufferPoolBytesSizeChange(t *testing.T) {
	p := newBufferPoolBytes(1000, 1)
	p.TouchSized(1, 300)
	if !p.TouchSized(1, 500) { // the page was rewritten larger
		t.Fatal("re-touch was a miss")
	}
	if got := p.BytesResident(); got != 500 {
		t.Errorf("BytesResident = %d after size change, want 500", got)
	}
}

func TestBufferPoolBytesReset(t *testing.T) {
	p := NewBufferPoolBytes(1 << 20)
	for id := PageID(1); id <= 64; id++ {
		p.TouchSized(id, 1000)
	}
	if p.Len() != 64 || p.BytesResident() != 64000 {
		t.Fatalf("pre-reset Len=%d BytesResident=%d", p.Len(), p.BytesResident())
	}
	p.Reset()
	if p.Len() != 0 || p.BytesResident() != 0 {
		t.Errorf("post-reset Len=%d BytesResident=%d, want 0/0", p.Len(), p.BytesResident())
	}
	if h, m := p.Stats(); h != 0 || m != 0 {
		t.Errorf("post-reset stats (%d, %d), want zeroed", h, m)
	}
	if p.TouchSized(1, 1000) {
		t.Error("post-reset touch was a hit")
	}
}

func TestTouchSizedOnPageCountPool(t *testing.T) {
	// Page-count pools ignore the byte argument entirely: two huge pages fit
	// in a 2-page pool, and BytesResident stays zero.
	p := newBufferPool(2, 1)
	p.TouchSized(1, 1<<30)
	p.TouchSized(2, 1<<30)
	if !p.Touch(1) || !p.Touch(2) {
		t.Error("both pages must be resident in a 2-page pool")
	}
	if got := p.BytesResident(); got != 0 {
		t.Errorf("BytesResident = %d on a page-count pool, want 0", got)
	}
	p.Touch(3)
	if p.Contains(1) {
		t.Error("page 1 should have been evicted by count")
	}
}
