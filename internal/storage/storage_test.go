package storage

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.LeafRead(3)
	c.DirRead(2)
	c.Write(5)
	c.Reclip(1)
	s := c.Snapshot()
	if s.LeafReads != 3 || s.DirReads != 2 || s.Writes != 5 || s.Reclips != 1 {
		t.Fatalf("unexpected snapshot %+v", s)
	}
	if s.Total() != 5 {
		t.Errorf("Total = %d, want 5", s.Total())
	}
	if s.String() == "" {
		t.Error("String should render")
	}
	c.Reset()
	if c.Snapshot() != (Snapshot{}) {
		t.Error("Reset should zero all counters")
	}
}

func TestCounterDiff(t *testing.T) {
	var c Counter
	c.LeafRead(10)
	before := c.Snapshot()
	c.LeafRead(7)
	c.DirRead(2)
	d := Diff(before, c.Snapshot())
	if d.LeafReads != 7 || d.DirReads != 2 {
		t.Fatalf("Diff = %+v", d)
	}
}

func TestCounterConcurrency(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.LeafRead(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Snapshot().LeafReads; got != 8000 {
		t.Fatalf("concurrent LeafRead lost updates: %d", got)
	}
}

func TestPagerAllocateWriteRead(t *testing.T) {
	p := NewImage(128)
	if p.PageSize() != 128 {
		t.Fatalf("PageSize = %d", p.PageSize())
	}
	id, err := p.Allocate(KindLeaf)
	if err != nil || id == InvalidPage {
		t.Fatalf("Allocate: %v %v", id, err)
	}
	payload := []byte("hello pages")
	if err := p.Write(id, payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, kind, err := p.Read(id)
	if err != nil || kind != KindLeaf || !bytes.Equal(got, payload) {
		t.Fatalf("Read = %q kind=%v err=%v", got, kind, err)
	}
	// Read returns a copy: mutating it must not affect the stored page.
	got[0] = 'X'
	again, _, _ := p.Read(id)
	if !bytes.Equal(again, payload) {
		t.Error("Read must return an independent copy")
	}
}

func TestPagerErrors(t *testing.T) {
	p := NewImage(16)
	if err := p.Write(999, []byte("x")); !errors.Is(err, ErrPageNotFound) {
		t.Errorf("expected ErrPageNotFound, got %v", err)
	}
	if _, _, err := p.Read(999); !errors.Is(err, ErrPageNotFound) {
		t.Errorf("expected ErrPageNotFound, got %v", err)
	}
	id, _ := p.Allocate(KindDirectory)
	if err := p.Write(id, make([]byte, 17)); !errors.Is(err, ErrPageTooLarge) {
		t.Errorf("expected ErrPageTooLarge, got %v", err)
	}
	if err := p.Free(id); err != nil {
		t.Errorf("Free: %v", err)
	}
	if err := p.Free(id); !errors.Is(err, ErrPageNotFound) {
		t.Errorf("double free should report ErrPageNotFound, got %v", err)
	}
	p.Close()
	if _, err := p.Allocate(KindLeaf); !errors.Is(err, ErrPagerClosed) {
		t.Errorf("expected ErrPagerClosed, got %v", err)
	}
	if _, _, err := p.Read(1); !errors.Is(err, ErrPagerClosed) {
		t.Errorf("expected ErrPagerClosed on read, got %v", err)
	}
}

func TestPagerDefaultSize(t *testing.T) {
	if NewImage(0).PageSize() != DefaultPageSize {
		t.Error("zero page size should default")
	}
}

func TestPagerUsage(t *testing.T) {
	p := NewImage(1024)
	leaf, _ := p.Allocate(KindLeaf)
	dir, _ := p.Allocate(KindDirectory)
	aux, _ := p.Allocate(KindAux)
	_ = p.Write(leaf, make([]byte, 100))
	_ = p.Write(dir, make([]byte, 50))
	_ = p.Write(aux, make([]byte, 10))
	u := p.Usage()
	if u.TotalPages != 3 || u.TotalBytes != 160 {
		t.Fatalf("Usage totals wrong: %+v", u)
	}
	if u.Pages[KindLeaf] != 1 || u.Bytes[KindLeaf] != 100 {
		t.Errorf("leaf usage wrong: %+v", u)
	}
	if u.Bytes[KindAux] != 10 {
		t.Errorf("aux usage wrong: %+v", u)
	}
}

func TestPageKindString(t *testing.T) {
	if KindLeaf.String() != "leaf" || KindDirectory.String() != "directory" || KindAux.String() != "aux" {
		t.Error("kind names wrong")
	}
	if PageKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestBufferPoolLRU(t *testing.T) {
	b := NewBufferPool(2)
	if b.Touch(1) {
		t.Error("first touch must be a miss")
	}
	if !b.Touch(1) {
		t.Error("second touch must be a hit")
	}
	b.Touch(2)
	b.Touch(3) // evicts 1 (least recently used)
	if b.Contains(1) {
		t.Error("page 1 should have been evicted")
	}
	if !b.Contains(2) || !b.Contains(3) {
		t.Error("pages 2 and 3 should be resident")
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2", b.Len())
	}
	hits, misses := b.Stats()
	if hits != 1 || misses != 3 {
		t.Errorf("Stats = %d hits %d misses", hits, misses)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Error("Reset should empty the pool")
	}
	if h, m := b.Stats(); h != 0 || m != 0 {
		t.Error("Reset should zero statistics")
	}
}

func TestBufferPoolRecencyOrder(t *testing.T) {
	b := NewBufferPool(2)
	b.Touch(1)
	b.Touch(2)
	b.Touch(1) // 1 becomes most recent
	b.Touch(3) // should evict 2, not 1
	if !b.Contains(1) || b.Contains(2) {
		t.Error("LRU recency not respected")
	}
}

func TestBufferPoolUnbounded(t *testing.T) {
	b := NewBufferPool(0)
	for i := PageID(1); i <= 1000; i++ {
		b.Touch(i)
	}
	if b.Len() != 1000 {
		t.Errorf("unbounded pool should keep everything, has %d", b.Len())
	}
}

func TestBufferPoolConcurrency(t *testing.T) {
	b := NewBufferPool(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Touch(PageID(i%100 + g))
			}
		}(g)
	}
	wg.Wait()
	hits, misses := b.Stats()
	if hits+misses != 2000 {
		t.Fatalf("lost touches: hits+misses = %d", hits+misses)
	}
}

func TestUnshardedBufferPoolExactLRU(t *testing.T) {
	// LRU is a stack algorithm: on one access sequence a larger exact-LRU pool
	// holds a superset of a smaller one's pages, so its misses never exceed
	// the smaller pool's — a cold run's misses shrink as the pool grows.
	var seq []PageID
	distinct := map[PageID]bool{}
	for i := 0; i < 5000; i++ {
		seq = append(seq, PageID(1+(i*i+7*i)%397))
		distinct[seq[i]] = true
	}
	prev := int64(len(seq) + 1)
	for _, capacity := range []int{1, 8, 64, 200, 397} {
		b := newBufferPool(capacity, 1)
		for _, id := range seq {
			b.Touch(id)
		}
		_, misses := b.Stats()
		if misses > prev {
			t.Fatalf("pool of %d pages missed %d times, a smaller one %d", capacity, misses, prev)
		}
		prev = misses
	}
	if prev != int64(len(distinct)) {
		t.Fatalf("a pool holding every page missed %d times, want one per page (%d)", prev, len(distinct))
	}

	// At capacity 256 NewBufferPool stripes the pool; the unsharded layout
	// keeps exact global-LRU eviction at any capacity.
	b := newBufferPool(256, 1)
	for i := 1; i <= 256; i++ {
		b.Touch(PageID(i))
	}
	b.Touch(1)           // page 1 becomes most recent
	b.Touch(PageID(300)) // must evict page 2, the global LRU victim
	if !b.Contains(1) || b.Contains(2) || !b.Contains(300) {
		t.Fatalf("unsharded pool is not an exact LRU: contains(1)=%v contains(2)=%v contains(300)=%v",
			b.Contains(1), b.Contains(2), b.Contains(300))
	}
	if b.Len() != 256 {
		t.Fatalf("Len %d, want 256", b.Len())
	}
}
