package storage

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Add(Snapshot{LeafReads: 3, DirReads: 2})
	c.Add(Snapshot{Writes: 5, Reclips: 1})
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

// TestCounterDiff holds what every measurement relies on instead of
// differencing counter readings: the counter moves by exactly the sum of the
// tallies charged to it.
func TestCounterDiff(t *testing.T) {
	var c Counter
	c.Add(Snapshot{LeafReads: 10})
	tallies := []Snapshot{{LeafReads: 7, DirReads: 2}, {Writes: 3, Reclips: 1}, {}}
	var sum Snapshot
	for _, s := range tallies {
		c.Add(s)
		sum = sum.Add(s)
	}
	if want := (Snapshot{LeafReads: 17, DirReads: 2, Writes: 3, Reclips: 1}); c.Snapshot() != want || sum.Add(Snapshot{LeafReads: 10}) != want {
		t.Fatalf("counter %+v, tallies %+v", c.Snapshot(), sum)
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
				c.Add(Snapshot{LeafReads: 1})
			}
		}()
	}
	wg.Wait()
	if got := c.Snapshot().LeafReads; got != 8000 {
		t.Fatalf("concurrent Add lost updates: %d", got)
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
