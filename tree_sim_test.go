package cbb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cbb/internal/storage"
)

// TestTreeSimulation drives one file-backed Tree through a seeded sequence of
// every kind of write it takes — inserts (with exact duplicates), deletes that
// hit and miss, InsertItems, batches that commit and that roll back — and of
// every way its file is left and entered again: flushes, a close followed by
// a reopen, a writable, a read-only and a mapped open that must give the
// same answers, a crash
// after the write-ahead log became durable (recovered whole) and one whose log
// was torn (recovered to the last flush), and a v1→v2→v1 transcode to a side
// path. An oracle holds the objects as a multiset; after every step Validate
// must pass, and the tree's objects and its answers to three windowed queries,
// which clip admission can prune, must equal the oracle's. Up to four read
// views ride along — one taken right after every open, others at random
// steps — and after every step each must still hold, and answer the same
// windows from, the oracle of its epoch, across flushes that recycle pages,
// rollbacks and crash reopens. Writers run one at a time: concurrent writers
// are left to the race tests.
func TestTreeSimulation(t *testing.T) {
	const steps = 2000
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.cbb")
	universe := R(0, 0, 1000, 1000)
	// Every file runs under a crashFS, which the crash steps arm.
	crashes := crashAfterWAL(t, -1, errors.New("crash after WAL"))
	tr, err := Create(path, Options{Dims: 2, MaxEntries: 8, MinEntries: 3, Universe: universe})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if tr != nil {
			tr.Close()
		}
	}()

	rng := rand.New(rand.NewSource(41))
	var live, durable []Item // the oracle, and what it held at the last flush
	// The views and the windowed queries draw from their own sources, so the
	// step sequence is the one the simulation runs without them.
	viewRng := rand.New(rand.NewSource(43))
	queryRng := rand.New(rand.NewSource(47))
	type heldView struct {
		v     *View
		epoch uint64
		want  []Item // the oracle at the view's epoch
	}
	var held []heldView
	// hold takes a view of the tree's committed state, dropping a random one
	// of four already held.
	hold := func() {
		if len(held) == 4 {
			i := viewRng.Intn(len(held))
			held[i].v.Close()
			held = slices.Delete(held, i, i+1)
		}
		v := tr.Snapshot()
		held = append(held, heldView{v: v, epoch: v.Epoch(), want: slices.Clone(live)})
	}
	openTree := func() {
		if tr, err = Open(path); err != nil {
			t.Fatal(err)
		}
		hold()
	}
	// Half the fresh objects fall in a crowded corner, so nodes overlap and
	// split there.
	objs := &simObjects{rng: rng, next: 1}
	fresh, freshItems, pick := objs.fresh, objs.freshItems, objs.pick
	// holds fails unless got is want as a multiset.
	holds := func(what string, got, want []Item) {
		t.Helper()
		if !sameItems(got, want) {
			t.Fatalf("%s holds %d objects, the oracle %d, and they differ", what, len(got), len(want))
		}
	}
	flush := func() {
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		durable = slices.Clone(live)
	}
	reopen := func() {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		durable = slices.Clone(live)
		openTree()
	}
	deleteSome := func() {
		for range 1 + rng.Intn(8) {
			if len(live) == 0 {
				return
			}
			it := pick(&live)
			if found, err := tr.Delete(it.Rect, it.Object); err != nil || !found {
				t.Fatalf("Delete(%d) = %v, %v; want found", it.Object, found, err)
			}
		}
	}
	// batch applies a few random writes through a Batch and commits or rolls
	// it back, keeping the oracle in step.
	batch := func(commit bool) {
		b, err := tr.Begin()
		if err != nil {
			t.Fatal(err)
		}
		pending := slices.Clone(live)
		for range 1 + rng.Intn(6) {
			switch r := rng.Intn(4); {
			case r == 0 && len(pending) > 0:
				it := pick(&pending)
				if found, err := b.Delete(it.Rect, it.Object); err != nil || !found {
					t.Fatalf("batch Delete(%d) = %v, %v; want found", it.Object, found, err)
				}
			case r == 1:
				items := freshItems(12)
				if err := b.InsertItems(items); err != nil {
					t.Fatal(err)
				}
				pending = append(pending, items...)
			default:
				it := fresh()
				if err := b.Insert(it.Rect, it.Object); err != nil {
					t.Fatal(err)
				}
				pending = append(pending, it)
			}
		}
		if !commit {
			b.Rollback()
			return
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		live = pending
	}
	// views closes the tree, opens the file writable, read-only and mapped,
	// and holds each, query by query, to the oracle; then reopens it.
	views := func() {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		durable = slices.Clone(live)
		queries := []Rect{universe}
		for range 4 {
			x, y, w := rng.Float64()*900, rng.Float64()*900, rng.Float64()*300
			queries = append(queries, R(x, y, x+w, y+w))
		}
		for _, open := range []struct {
			name string
			fn   func(string) (*Tree, error)
		}{{"Open", Open}, {"OpenReadOnly", OpenReadOnly}, {"OpenMmap", OpenMmap}} {
			v, err := open.fn(path)
			if errors.Is(err, ErrMmapUnsupported) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				holds(open.name, v.SearchAll(q), within(live, q))
			}
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
		}
		openTree()
	}
	// crash makes the tree dirty, stops its flush once the write-ahead log is
	// durable, and abandons it like a dead process; torn cuts the log's
	// commit record off before the reopen.
	crash := func(torn bool) {
		items := freshItems(24)
		if err := tr.InsertItems(items); err != nil {
			t.Fatal(err)
		}
		live = append(live, items...)
		crashes.skip = 0
		if err := tr.Flush(); !errors.Is(err, crashes.err) {
			t.Fatalf("Flush = %v, want the injected crash", err)
		}
		// The pager's Close applies nothing; it only gives the file back.
		if err := tr.pager.Close(); err != nil {
			t.Fatal(err)
		}
		if torn {
			wal := path + storage.WALSuffix
			buf, err := os.ReadFile(wal)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(wal, buf[:len(buf)-7], 0o644); err != nil {
				t.Fatal(err)
			}
			live = slices.Clone(durable)
		}
		openTree()
		durable = slices.Clone(live)
	}
	// transcode flushes, then takes the file to v2 and back to v1 at a side
	// path, which must hold the same objects.
	transcode := func() {
		flush()
		v2, v1 := filepath.Join(dir, "side.v2.cbb"), filepath.Join(dir, "side.v1.cbb")
		if err := TranscodeSnapshot(path, v2, SnapshotV2); err != nil {
			t.Fatal(err)
		}
		if err := TranscodeSnapshot(v2, v1, SnapshotV1); err != nil {
			t.Fatal(err)
		}
		side, err := Open(v1)
		if err != nil {
			t.Fatal(err)
		}
		if err := side.Validate(); err != nil {
			t.Fatal(err)
		}
		holds("the v1→v2→v1 transcode", side.SearchAll(universe), live)
		if err := side.Close(); err != nil {
			t.Fatal(err)
		}
	}

	ops := []struct {
		name   string
		weight int
		run    func()
	}{
		{"Insert", 40, func() {
			it := fresh()
			if len(live) > 0 && rng.Intn(10) == 0 {
				it = live[rng.Intn(len(live))] // an exact duplicate
			}
			if err := tr.Insert(it.Rect, it.Object); err != nil {
				t.Fatal(err)
			}
			live = append(live, it)
		}},
		{"InsertItems", 20, func() {
			items := freshItems(24)
			if err := tr.InsertItems(items); err != nil {
				t.Fatal(err)
			}
			live = append(live, items...)
		}},
		{"Delete", 30, deleteSome},
		{"Delete miss", 10, func() {
			it := fresh()
			if len(live) > 0 && rng.Intn(2) == 0 {
				it.Rect = live[rng.Intn(len(live))].Rect // a live rectangle, another id
			}
			if found, err := tr.Delete(it.Rect, it.Object); err != nil || found {
				t.Fatalf("Delete of absent object %d = %v, %v; want not found", it.Object, found, err)
			}
		}},
		{"batch commit", 15, func() { batch(true) }},
		{"batch rollback", 10, func() { batch(false) }},
		{"Flush", 10, flush},
		{"reopen", 5, reopen},
		{"views", 2, views},
		{"crash", 2, func() { crash(false) }},
		{"torn crash", 2, func() { crash(true) }},
		{"transcode", 1, transcode},
	}
	total := 0
	for _, op := range ops {
		total += op.weight
	}
	ran := map[string]int{}
	for step := 1; step <= steps; step++ {
		// The population swells towards 400 and shrinks towards 30 in
		// alternating phases; outside its target a growing step deletes.
		target := 400
		if step/250%2 == 1 {
			target = 30
		}
		r := rng.Intn(total)
		i := 0
		for r >= ops[i].weight {
			r -= ops[i].weight
			i++
		}
		name, run := ops[i].name, ops[i].run
		switch name {
		case "Insert", "InsertItems", "batch commit":
			if len(live) > target {
				name, run = "Delete", deleteSome
			}
		}
		run()
		ran[name]++
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d (%s): %v", step, name, err)
		}
		holds("the tree", tr.SearchAll(universe), live)
		if viewRng.Intn(8) == 0 {
			hold()
		}
		windows := [3]Rect{simWindow(queryRng, live), simWindow(queryRng, live), simWindow(queryRng, live)}
		for _, q := range windows {
			holds(fmt.Sprintf("at step %d (%s) the tree, in the window %v,", step, name, q), tr.SearchAll(q), within(live, q))
		}
		for _, h := range held {
			if h.v.Epoch() != h.epoch {
				t.Fatalf("step %d (%s): a view of epoch %d moved to %d", step, name, h.epoch, h.v.Epoch())
			}
			holds("a view", h.v.SearchAll(universe), h.want)
			for _, q := range windows {
				holds(fmt.Sprintf("at step %d (%s) a view, in the window %v,", step, name, q), h.v.SearchAll(q), within(h.want, q))
			}
		}
	}
	t.Logf("%d objects at the end; steps run: %v", len(live), ran)
	for _, op := range ops {
		if ran[op.name] == 0 {
			t.Errorf("the simulation never ran %q", op.name)
		}
	}
}
