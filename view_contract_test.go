package cbb

import (
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// retainedRect is a rectangle a query handed out, kept without Clone, next
// to the coordinate bits it had when it was handed out.
type retainedRect struct {
	rect   Rect
	lo, hi []uint64
}

func floatBits(p Point) []uint64 {
	out := make([]uint64, len(p))
	for i, v := range p {
		out[i] = math.Float64bits(v)
	}
	return out
}

func (r retainedRect) unchanged() bool {
	for i := range r.lo {
		if math.Float64bits(r.rect.Lo[i]) != r.lo[i] || math.Float64bits(r.rect.Hi[i]) != r.hi[i] {
			return false
		}
	}
	return true
}

// TestVisitedRectsStayValid pins the view contract of node storage: every
// Rect a query hands out aliases immutable node storage, so it may be kept
// without Clone and stays bit-unchanged whatever the writer does afterwards —
// splits, forced reinsertion, condensing, batch rollback, flushes — and its
// Lo/Hi are capacity-capped, so a caller's append cannot reach the
// neighbouring entry. (Join and JoinItems hand out object ids only; there is
// nothing to retain from them.) A checker goroutine re-reads the first
// harvest while the writer churns, so under -race any in-place write to
// viewed storage is reported as a data race even if it rewrote equal values.
func TestVisitedRectsStayValid(t *testing.T) {
	const dims = 2
	rng := rand.New(rand.NewSource(77))
	randItem := func(id int) Item {
		lo := Pt(rng.Float64()*100, rng.Float64()*100)
		return Item{Object: ObjectID(id), Rect: Rect{Lo: lo, Hi: Pt(lo[0]+rng.Float64()*3, lo[1]+rng.Float64()*3)}}
	}
	// Small nodes and the R*-tree: frequent splits, forced reinsertion on
	// overflow, and condensing on delete.
	opts := Options{Dims: dims, Variant: RStarTree, Clipping: ClipStairline, MaxEntries: 8, MinEntries: 3}
	live := map[*Tree][]Item{}
	nextID := 0
	seed := func(tree *Tree, n int) {
		items := make([]Item, n)
		for i := range items {
			items[i] = randItem(nextID)
			nextID++
		}
		if err := tree.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
		live[tree] = items
	}

	mem, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	seed(mem, 600)
	path := filepath.Join(t.TempDir(), "views.cbb")
	created, err := Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	seed(created, 600)
	fileItems := live[created]
	delete(live, created)
	if err := created.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopened, so the retained rects alias arrays the page decoder filled.
	file, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	live[file] = fileItems

	var kept []retainedRect
	keep := func(r Rect) {
		if cap(r.Lo) != len(r.Lo) || cap(r.Hi) != len(r.Hi) {
			t.Fatalf("handed-out rect %v has spare capacity (lo %d/%d, hi %d/%d): an append would overwrite its neighbour",
				r, len(r.Lo), cap(r.Lo), len(r.Hi), cap(r.Hi))
		}
		kept = append(kept, retainedRect{rect: r, lo: floatBits(r.Lo), hi: floatBits(r.Hi)})
	}
	type queryable interface {
		Search(Rect, func(ObjectID, Rect) bool)
		SearchAll(Rect) []Item
		NearestNeighbors(int, Point) []Neighbor
	}
	harvest := func(src queryable) {
		lo := Pt(rng.Float64()*80, rng.Float64()*80)
		q := Rect{Lo: lo, Hi: Pt(lo[0]+20, lo[1]+20)}
		src.Search(q, func(_ ObjectID, r Rect) bool { keep(r); return true })
		for _, it := range src.SearchAll(q) {
			keep(it.Rect)
		}
		for _, nb := range src.NearestNeighbors(8, Pt(rng.Float64()*100, rng.Float64()*100)) {
			keep(nb.Rect)
		}
	}
	view := mem.Snapshot()
	defer view.Close()
	for _, src := range []queryable{mem, view, file} {
		harvest(src)
	}
	if len(kept) < 100 {
		t.Fatalf("only %d rects retained; test is vacuous", len(kept))
	}

	first := kept[:len(kept):len(kept)]
	stop := make(chan struct{})
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range first {
				if !first[i].unchanged() {
					t.Errorf("retained rect %d changed under the writer", i)
					return
				}
			}
		}
	}()

	trees := []*Tree{mem, file}
	for op := 0; op < 10000; op++ {
		tree := trees[op%2]
		items := live[tree]
		switch k := rng.Intn(100); {
		case k < 45:
			it := randItem(nextID)
			nextID++
			if err := tree.Insert(it.Rect, it.Object); err != nil {
				t.Fatal(err)
			}
			items = append(items, it)
		case k < 85 && len(items) > 50:
			i := rng.Intn(len(items))
			if found, err := tree.Delete(items[i].Rect, items[i].Object); err != nil || !found {
				t.Fatalf("Delete(%v): found %v, err %v", items[i], found, err)
			}
			items[i] = items[len(items)-1]
			items = items[:len(items)-1]
		case k < 92:
			batch := make([]Item, 1+rng.Intn(40))
			for i := range batch {
				batch[i] = randItem(nextID)
				nextID++
			}
			if err := tree.InsertItems(batch); err != nil {
				t.Fatal(err)
			}
			items = append(items, batch...)
		case k < 98:
			b, err := tree.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := b.Insert(randItem(-1).Rect, -1); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := b.Delete(items[0].Rect, items[0].Object); err != nil {
				t.Fatal(err)
			}
			b.Rollback()
		}
		live[tree] = items
		if op%500 == 0 {
			harvest(tree)
			if err := file.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	checker.Wait()

	for i := range kept {
		if !kept[i].unchanged() {
			t.Fatalf("retained rect %d of %d changed: now %v", i, len(kept), kept[i].rect)
		}
	}
	for tree, items := range live {
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		if tree.Len() != len(items) {
			t.Fatalf("Len = %d, want %d", tree.Len(), len(items))
		}
	}
}
