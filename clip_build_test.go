package cbb

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// The clip table a build produces does not depend on how many workers built
// it: the v1 snapshot of a bulk-loaded tree is the same bytes under any
// GOMAXPROCS, and a file-backed tree built that way commits, reopens and
// validates (the root-package twin of internal/clipindex's test of the same
// name, which compares the table itself with a per-node serial reference).
func TestRebuildDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dir := t.TempDir()
	for _, dims := range []int{2, 3} {
		for _, clip := range []ClipMethod{ClipSkyline, ClipStairline} {
			opts := Options{Dims: dims, Clipping: clip, MaxEntries: 16, MinEntries: 6}
			items := corpusItems(dims, 6000, int64(40+dims))
			var first []byte
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				tr, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.BulkLoad(items); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, "snap.cbb")
				if err := tr.WriteSnapshot(path, SnapshotV1); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = got
					if tr.Stats().ClipPoints == 0 {
						t.Fatalf("dims %d %s: no clip points; the comparison is vacuous", dims, clip)
					}
				} else if !bytes.Equal(got, first) {
					t.Fatalf("dims %d %s: snapshot built under GOMAXPROCS=%d differs from the one built under 1", dims, clip, procs)
				}
			}

			runtime.GOMAXPROCS(8)
			path := filepath.Join(dir, "backed.cbb")
			tr, err := Create(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BulkLoad(items); err != nil {
				t.Fatal(err)
			}
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			ro, err := OpenReadOnly(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := ro.Validate(); err != nil {
				t.Fatalf("dims %d %s: reopened file-backed tree: %v", dims, clip, err)
			}
			if ro.Len() != len(items) {
				t.Fatalf("dims %d %s: reopened tree has %d objects, want %d", dims, clip, ro.Len(), len(items))
			}
			if err := ro.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Wholesale-rebuild batches (each twice the tree, so InsertItems repacks
// everything and the clip table is rebuilt by the parallel build loop) beside
// readers on pinned views and on Tree.Search: every reader gets one epoch's
// answer. Objects are only added, in slice order, so an epoch is identified
// by its object count.
func TestRebuildBesidePinnedReaders(t *testing.T) {
	const base = 250
	sizes := []int{base, 3 * base, 9 * base, 27 * base}
	items := corpusItems(3, sizes[len(sizes)-1], 91)
	queries := corpusQueries(3, 16, 92)
	want := make(map[int][]int, len(sizes)) // object count → answer per query
	for _, n := range sizes {
		counts := make([]int, len(queries))
		for qi, q := range queries {
			for _, it := range items[:n] {
				if it.Rect.Intersects(q) {
					counts[qi]++
				}
			}
		}
		want[n] = counts
	}
	tr, err := New(Options{Dims: 3, MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(items[:base]); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	stop := sync.OnceFunc(func() { close(done); readers.Wait() })
	defer stop()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(pinned bool) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				qi := i % len(queries)
				if pinned {
					v := tr.Snapshot()
					n := v.Len()
					if want[n] == nil {
						t.Errorf("view of %d objects: no commit ever published that many", n)
						v.Close()
						return
					}
					for k := 0; k < 4; k++ { // the view stays put while the writer moves on
						if got := v.Count(queries[qi]); got != want[n][qi] {
							t.Errorf("view of %d objects: query %d found %d, want %d", n, qi, got, want[n][qi])
						}
					}
					v.Close()
					continue
				}
				before := tr.Len()
				got := tr.Count(queries[qi])
				after := tr.Len()
				ok := false
				for _, n := range sizes {
					ok = ok || (n >= before && n <= after && got == want[n][qi])
				}
				if !ok {
					t.Errorf("query %d found %d between epochs of %d and %d objects: no epoch's answer", qi, got, before, after)
				}
			}
		}(r%2 == 0)
	}
	for i := 1; i < len(sizes); i++ {
		if err := tr.InsertItems(items[sizes[i-1]:sizes[i]]); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// MaxClipPoints is a cap, not a size: an absurd one costs nothing (it used to
// size a pre-allocation and panic on the first clipped node), a node keeps as
// many clip points as it has candidates above the threshold, and a negative
// one is an Options error.
func TestHugeMaxClipPointsDoesNotPanic(t *testing.T) {
	if _, err := New(Options{Dims: 2, MaxClipPoints: -1}); err == nil || err.Error() != "cbb: Options.MaxClipPoints must not be negative" {
		t.Fatalf("negative MaxClipPoints: err = %v", err)
	}
	opts := Options{Dims: 2, MaxClipPoints: 1 << 50, MaxEntries: 16, MinEntries: 6}
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	items := corpusItems(2, 3000, 7)
	for _, it := range items[:200] {
		if err := tr.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
	}
	bulk, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	// With the default cap of 8 a node has at most 8 clip points; uncapped it
	// has every candidate above the threshold — more, but never more than a
	// node of 16 children has candidates: per corner a skyline of at most 16
	// points and their 120 pairwise splices.
	capped, err := New(Options{Dims: 2, MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := capped.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	st, cst := bulk.Stats(), capped.Stats()
	if nodes := st.LeafNodes + st.DirNodes; st.ClipPoints < cst.ClipPoints || st.ClipPoints > 4*(16+120)*nodes {
		t.Fatalf("uncapped: %d clip points on %d nodes (capped at 8: %d)", st.ClipPoints, nodes, cst.ClipPoints)
	}
	for _, q := range corpusQueries(2, 50, 8) {
		if got, want := bulk.Count(q), capped.Count(q); got != want {
			t.Fatalf("query %v: %d results uncapped, %d capped", q, got, want)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := bulk.Validate(); err != nil {
		t.Fatal(err)
	}
}
