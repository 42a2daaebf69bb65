package cbb

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

// corpusItems builds a deterministic item set in d dimensions.
func corpusItems(d, n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		lo := make(Point, d)
		hi := make(Point, d)
		for j := 0; j < d; j++ {
			lo[j] = rng.Float64() * 1000
			hi[j] = lo[j] + rng.Float64()*12
		}
		items[i] = Item{Object: ObjectID(i), Rect: Rect{Lo: lo, Hi: hi}}
	}
	return items
}

// corpusQueries builds a deterministic query batch in d dimensions.
func corpusQueries(d, n int, seed int64) []Rect {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]Rect, n)
	for i := range qs {
		lo := make(Point, d)
		hi := make(Point, d)
		for j := 0; j < d; j++ {
			lo[j] = rng.Float64() * 900
			hi[j] = lo[j] + 20 + rng.Float64()*120
		}
		qs[i] = Rect{Lo: lo, Hi: hi}
	}
	return qs
}

// assertTreesEqual checks that two trees agree bit-for-bit on structure and
// query results: Stats, Len, Height, and SearchAll (including result order)
// over a query batch.
func assertTreesEqual(t *testing.T, want, got *Tree, queries []Rect) {
	t.Helper()
	if want.Len() != got.Len() || want.Height() != got.Height() {
		t.Fatalf("shape differs: %d/%d vs %d/%d", want.Len(), want.Height(), got.Len(), got.Height())
	}
	if ws, gs := want.Stats(), got.Stats(); !reflect.DeepEqual(ws, gs) {
		t.Fatalf("stats differ:\n  want %+v\n  got  %+v", ws, gs)
	}
	for i, q := range queries {
		wr, gr := want.SearchAll(q), got.SearchAll(q)
		if !reflect.DeepEqual(wr, gr) {
			t.Fatalf("query %d: %d results vs %d, or order differs", i, len(wr), len(gr))
		}
	}
}

// TestSnapshotRoundTripMatrix covers the full encode/decode matrix: all four
// variants, dims 1–3, all three clip methods, and three tree shapes (empty,
// single object, bulk loaded), through both Load (in-memory) and Open
// (file-backed).
func TestSnapshotRoundTripMatrix(t *testing.T) {
	variants := []Variant{QRTree, HRTree, RStarTree, RRStarTree}
	methods := []ClipMethod{ClipStairline, ClipSkyline, ClipNone}
	shapes := []string{"empty", "single", "bulk"}
	dir := t.TempDir()

	for _, v := range variants {
		for d := 1; d <= 3; d++ {
			for _, m := range methods {
				for _, shape := range shapes {
					name := fmt.Sprintf("%v/%dd/%v/%s", v, d, m, shape)
					t.Run(name, func(t *testing.T) {
						orig, err := New(Options{Dims: d, Variant: v, Clipping: m})
						if err != nil {
							t.Fatal(err)
						}
						switch shape {
						case "single":
							if err := orig.Insert(corpusItems(d, 1, 3)[0].Rect, 0); err != nil {
								t.Fatal(err)
							}
						case "bulk":
							if err := orig.BulkLoad(corpusItems(d, 400, 3)); err != nil {
								t.Fatal(err)
							}
						}
						queries := corpusQueries(d, 12, 5)

						var buf bytes.Buffer
						if err := orig.SaveTo(&buf); err != nil {
							t.Fatal(err)
						}
						loaded, err := Load(bytes.NewReader(buf.Bytes()))
						if err != nil {
							t.Fatal(err)
						}
						assertTreesEqual(t, orig, loaded, queries)
						if err := loaded.Validate(); err != nil {
							t.Fatalf("loaded tree invalid: %v", err)
						}
						// The snapshot stores the effective universe, while
						// fresh Options may leave it zero; compare the rest.
						lo, oo := loaded.Options(), orig.Options()
						lo.Universe, oo.Universe = Rect{}, Rect{}
						if !reflect.DeepEqual(lo, oo) {
							t.Fatalf("options differ after load:\n  want %+v\n  got  %+v", oo, lo)
						}

						path := filepath.Join(dir, fmt.Sprintf("m-%v-%d-%v-%s.cbb", v, d, m, shape))
						f, err := os.Create(path)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := f.Write(buf.Bytes()); err != nil {
							t.Fatal(err)
						}
						if err := f.Close(); err != nil {
							t.Fatal(err)
						}
						opened, err := Open(path)
						if err != nil {
							t.Fatal(err)
						}
						defer opened.Close()
						assertTreesEqual(t, orig, opened, queries)
						if err := opened.Err(); err != nil {
							t.Fatal(err)
						}
						if err := opened.Validate(); err != nil {
							t.Fatalf("opened tree invalid: %v", err)
						}
					})
				}
			}
		}
	}
}

// TestFileBackedQueryIO is the acceptance criterion of the persistence
// subsystem: a bulk-loaded clipped tree, saved and reopened file-backed,
// returns bit-identical SearchAll results and Stats, serves the queries
// directly off the FilePager, and its leaf/dir read counts match the
// in-memory tree for the same batch.
func TestFileBackedQueryIO(t *testing.T) {
	orig, err := New(Options{Dims: 2, Variant: RRStarTree, Clipping: ClipStairline})
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.BulkLoad(corpusItems(2, 3000, 11)); err != nil {
		t.Fatal(err)
	}
	queries := corpusQueries(2, 80, 13)

	path := filepath.Join(t.TempDir(), "accept.cbb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.SaveTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	assertTreesEqual(t, orig, opened, queries)

	orig.ResetIOStats()
	opened.ResetIOStats()
	for _, q := range queries {
		orig.Search(q, func(ObjectID, Rect) bool { return true })
		opened.Search(q, func(ObjectID, Rect) bool { return true })
	}
	mem, file := orig.IOStats(), opened.IOStats()
	if mem.LeafReads != file.LeafReads || mem.DirReads != file.DirReads {
		t.Fatalf("I/O differs: in-memory leaf=%d dir=%d, file-backed leaf=%d dir=%d",
			mem.LeafReads, mem.DirReads, file.LeafReads, file.DirReads)
	}
	if mem.LeafReads == 0 {
		t.Fatal("query batch charged no leaf reads")
	}
	reads, _, ok := opened.FileStats()
	if !ok || reads == 0 {
		t.Fatalf("queries did not run against the FilePager (reads=%d ok=%v)", reads, ok)
	}
	if err := opened.Err(); err != nil {
		t.Fatal(err)
	}

	// The same snapshot loaded fully in memory is also bit-identical.
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	loaded, err := Load(g)
	if err != nil {
		t.Fatal(err)
	}
	assertTreesEqual(t, orig, loaded, queries)
}

// TestOpenReadOnly pins the explicit read-only mode and the ErrReadOnly
// satellite: every public mutating method must fail such that
// errors.Is(err, cbb.ErrReadOnly) holds, without importing internal/rtree.
func TestOpenReadOnly(t *testing.T) {
	orig, err := New(Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.BulkLoad(corpusItems(2, 200, 1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ro.cbb")
	f, _ := os.Create(path)
	if err := orig.SaveTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	opened, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if !opened.ReadOnly() {
		t.Fatal("OpenReadOnly tree must report ReadOnly")
	}
	if err := opened.Insert(R(0, 0, 1, 1), 999); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert: %v, want ErrReadOnly", err)
	}
	if _, err := opened.Delete(R(0, 0, 1, 1), 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Delete: %v, want ErrReadOnly", err)
	}
	if err := opened.BulkLoad(nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("BulkLoad: %v, want ErrReadOnly", err)
	}
	if err := opened.Flush(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Flush: %v, want ErrReadOnly", err)
	}
	// The read-only open still serves queries off the file.
	if got, want := opened.Count(R(0, 0, 1000, 1000)), orig.Count(R(0, 0, 1000, 1000)); got != want {
		t.Fatalf("read-only count %d, want %d", got, want)
	}
	// A writable open of the same file must NOT report read-only.
	rw, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if rw.ReadOnly() {
		t.Fatal("Open of a writable file must not be read-only")
	}
}

// applyOps drives one tree through the shared mixed mutation sequence:
// items[from:to] are inserted one by one, and after every fourth insert the
// object at the delete cursor (always one inserted before `from`, so it is
// guaranteed live) is deleted. Deterministic, so two trees fed the same
// sequence end in the same state; delFrom threads the cursor across phases.
func applyOps(t *testing.T, tree *Tree, items []Item, from, to, delFrom int) (inserts, deletes, delNext int) {
	t.Helper()
	del := delFrom
	for i, it := range items[from:to] {
		if err := tree.Insert(it.Rect, it.Object); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		inserts++
		if i%4 == 3 && del < from {
			victim := items[del]
			ok, err := tree.Delete(victim.Rect, victim.Object)
			if err != nil {
				t.Fatalf("delete %d: %v", del, err)
			}
			if !ok {
				t.Fatalf("delete %d: object %d not found", del, victim.Object)
			}
			del++
			deletes++
		}
	}
	return inserts, deletes, del
}

// assertSameQueryAccesses runs the query batch against both trees from a cold
// counter and requires bit-identical leaf and directory access counts.
func assertSameQueryAccesses(t *testing.T, want, got *Tree, queries []Rect) {
	t.Helper()
	want.ResetIOStats()
	got.ResetIOStats()
	for _, q := range queries {
		want.Search(q, func(ObjectID, Rect) bool { return true })
		got.Search(q, func(ObjectID, Rect) bool { return true })
	}
	w, g := want.IOStats(), got.IOStats()
	if w.LeafReads != g.LeafReads || w.DirReads != g.DirReads {
		t.Fatalf("query I/O differs: want leaf=%d dir=%d, got leaf=%d dir=%d",
			w.LeafReads, w.DirReads, g.LeafReads, g.DirReads)
	}
}

// TestWritableFileBackedMatrix is the acceptance matrix of the writable
// persistence path: over dims 1–3 and all three clip methods, a file-backed
// tree mutated through the shared operation sequence, flushed, and reopened
// must be bit-identical — SearchAll (including order), Stats, and leaf/dir
// query I/O — to an in-memory tree fed the same sequence.
func TestWritableFileBackedMatrix(t *testing.T) {
	dir := t.TempDir()
	for d := 1; d <= 3; d++ {
		for _, m := range []ClipMethod{ClipStairline, ClipSkyline, ClipNone} {
			t.Run(fmt.Sprintf("%dd/%v", d, m), func(t *testing.T) {
				opts := Options{Dims: d, Variant: RRStarTree, Clipping: m, MaxEntries: 16, MinEntries: 6}
				items := corpusItems(d, 1600, int64(100*d+int(m)))
				live := 600

				base, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, it := range items[:live] {
					if err := base.Insert(it.Rect, it.Object); err != nil {
						t.Fatal(err)
					}
				}
				var buf bytes.Buffer
				if err := base.SaveTo(&buf); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, fmt.Sprintf("w-%d-%v.cbb", d, m))
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}

				mem, err := Load(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				fb, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				applyOps(t, mem, items, live, len(items), 0)
				applyOps(t, fb, items, live, len(items), 0)

				queries := corpusQueries(d, 25, int64(7*d))
				assertTreesEqual(t, mem, fb, queries)
				if err := fb.Flush(); err != nil {
					t.Fatal(err)
				}
				if _, writes, ok := fb.FileStats(); !ok || writes == 0 {
					t.Fatalf("flush wrote no pages back (writes=%d ok=%v)", writes, ok)
				}
				if err := fb.Close(); err != nil {
					t.Fatal(err)
				}

				reopened, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer reopened.Close()
				assertTreesEqual(t, mem, reopened, queries)
				assertSameQueryAccesses(t, mem, reopened, queries)
				if err := reopened.Validate(); err != nil {
					t.Fatalf("reopened tree invalid: %v", err)
				}
				if err := reopened.Err(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestWritableFileBackedHeavy is the headline acceptance run: ≥10k inserts
// plus deletes against a writable file-backed tree, flushed mid-stream and
// at the end, reopened, and compared bit-for-bit against the in-memory twin.
func TestWritableFileBackedHeavy(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy update workload")
	}
	opts := Options{Dims: 2, Variant: RRStarTree, Clipping: ClipStairline}
	items := corpusItems(2, 14000, 77)
	live := 2000

	base, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items[:live] {
		if err := base.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := base.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "heavy.cbb")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mem, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}

	// First half of the sequence, then a mid-stream flush, then the rest:
	// the second half mutates pages the first flush just wrote back.
	half := live + (len(items)-live)/2
	ins1, del1, dn := applyOps(t, mem, items, live, half, 0)
	applyOps(t, fb, items, live, half, 0)
	if err := fb.Flush(); err != nil {
		t.Fatal(err)
	}
	ins2, del2, _ := applyOps(t, mem, items, half, len(items), dn)
	applyOps(t, fb, items, half, len(items), dn)
	if ins1+ins2 < 10000 || del1+del2 < 2000 {
		t.Fatalf("workload too small: %d inserts, %d deletes", ins1+ins2, del1+del2)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	queries := corpusQueries(2, 60, 79)
	assertTreesEqual(t, mem, reopened, queries)
	assertSameQueryAccesses(t, mem, reopened, queries)
	if reads, writes, ok := reopened.FileStats(); !ok || reads == 0 {
		t.Fatalf("reopened tree did not fault pages from disk (reads=%d writes=%d ok=%v)", reads, writes, ok)
	}
	if err := reopened.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushCrashRecovery exercises the public crash contract: a flush that
// dies after its WAL is durable must surface the post-flush state on the
// next Open; one that dies before (torn WAL) must surface the pre-flush
// state. Never an error, never a mix.
func TestFlushCrashRecovery(t *testing.T) {
	items := corpusItems(2, 900, 91)
	mkState := func(tmpdir string) string {
		t.Helper()
		path := filepath.Join(tmpdir, "crash.cbb")
		created, err := Create(path, Options{Dims: 2, MaxEntries: 16, MinEntries: 6})
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items[:500] {
			if err := created.Insert(it.Rect, it.Object); err != nil {
				t.Fatal(err)
			}
		}
		if err := created.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("after-WAL", func(t *testing.T) {
		path := mkState(t.TempDir())
		boom := errors.New("crash after WAL")
		crashAfterWAL(t, 0, boom)
		fb, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, fb, items, 500, len(items), 0)
		if err := fb.Flush(); !errors.Is(err, boom) {
			t.Fatalf("flush error = %v, want injected crash", err)
		}
		// Abandon fb like a dead process and reopen: the committed WAL must
		// replay to the post-flush state.
		reopened, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		mem, err := Load(mustReadAll(t, path))
		if err != nil {
			t.Fatal(err)
		}
		queries := corpusQueries(2, 20, 93)
		assertTreesEqual(t, mem, reopened, queries)
		// And it must equal the in-memory twin of the full op sequence.
		twin, err := New(Options{Dims: 2, MaxEntries: 16, MinEntries: 6})
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items[:500] {
			if err := twin.Insert(it.Rect, it.Object); err != nil {
				t.Fatal(err)
			}
		}
		applyOps(t, twin, items, 500, len(items), 0)
		for i, q := range queries {
			if twin.Count(q) != reopened.Count(q) {
				t.Fatalf("query %d: recovered state differs from post-flush state", i)
			}
		}
	})

	t.Run("retry-after-failed-commit", func(t *testing.T) {
		path := mkState(t.TempDir())
		boom := errors.New("transient I/O error")
		crashAfterWAL(t, 0, boom)
		fb, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, fb, items, 500, len(items), 0)
		if err := fb.Flush(); !errors.Is(err, boom) {
			t.Fatalf("flush error = %v, want injected failure", err)
		}
		// The failure was transient (the crashFS fails one write): flushing
		// again must commit the same transaction, not silently drop it.
		if err := fb.Flush(); err != nil {
			t.Fatalf("retried flush: %v", err)
		}
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		twin, err := New(Options{Dims: 2, MaxEntries: 16, MinEntries: 6})
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items[:500] {
			if err := twin.Insert(it.Rect, it.Object); err != nil {
				t.Fatal(err)
			}
		}
		applyOps(t, twin, items, 500, len(items), 0)
		queries := corpusQueries(2, 20, 95)
		for i, q := range queries {
			if twin.Count(q) != reopened.Count(q) {
				t.Fatalf("query %d: retried flush lost mutations", i)
			}
		}
	})

	t.Run("torn-WAL", func(t *testing.T) {
		path := mkState(t.TempDir())
		s1, err := Load(mustReadAll(t, path))
		if err != nil {
			t.Fatal(err)
		}
		boom := errors.New("crash after WAL")
		crashAfterWAL(t, 0, boom)
		fb, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, fb, items, 500, len(items), 0)
		if err := fb.Flush(); !errors.Is(err, boom) {
			t.Fatalf("flush error = %v, want injected crash", err)
		}
		// Tear the WAL: drop its last 7 bytes (the commit record is gone).
		walPath := path + storage.WALSuffix
		wal, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath, wal[:len(wal)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		queries := corpusQueries(2, 20, 93)
		assertTreesEqual(t, s1, reopened, queries)
	})
}

// TestSnapshotOverCommittedWAL writes a snapshot over a file whose last flush
// crashed after its write-ahead log became durable. A log names only a page
// size, not the file it belongs to, so one left beside the new file would be
// replayed onto it by the next Open. The new file must open as written, with
// no log beside it: a fresh tree exported over the path, and the file
// compacted in place (which folds the log in).
func TestSnapshotOverCommittedWAL(t *testing.T) {
	items := corpusItems(2, 1220, 61)
	opts := Options{Dims: 2, MaxEntries: 16, MinEntries: 6}
	// crashed leaves path as 800 committed objects plus a durable log of 120
	// more that was never applied.
	crashed := func(t *testing.T) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "stale.cbb")
		tr, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(items[:800]); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteSnapshot(path, SnapshotV1); err != nil {
			t.Fatal(err)
		}
		boom := errors.New("crash after WAL")
		crashAfterWAL(t, 0, boom)
		fb, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fb.InsertItems(items[800:920]); err != nil {
			t.Fatal(err)
		}
		if err := fb.Flush(); !errors.Is(err, boom) {
			t.Fatalf("flush error = %v, want injected crash", err)
		}
		if _, err := os.Stat(path + storage.WALSuffix); err != nil {
			t.Fatalf("the crashed flush left no log: %v", err)
		}
		return path // fb is abandoned like a dead process
	}
	check := func(t *testing.T, path string, want []Item) {
		t.Helper()
		if _, err := os.Stat(path + storage.WALSuffix); !os.IsNotExist(err) {
			t.Errorf("a write-ahead log is left beside the new file (stat: %v)", err)
		}
		tr, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if tr.Len() != len(want) {
			t.Fatalf("Len %d, want %d", tr.Len(), len(want))
		}
		got := tr.SearchAll(R(-1, -1, 2000, 2000))
		sortItems(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SearchAll returned %d items, not the %d written", len(got), len(want))
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("WriteSnapshot", func(t *testing.T) {
		path := crashed(t)
		fresh, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.BulkLoad(items[920:]); err != nil {
			t.Fatal(err)
		}
		if err := fresh.WriteSnapshot(path, SnapshotV1); err != nil {
			t.Fatal(err)
		}
		check(t, path, items[920:])
	})
	t.Run("TranscodeInPlace", func(t *testing.T) {
		path := crashed(t)
		if err := TranscodeSnapshot(path, path, SnapshotV1); err != nil {
			t.Fatal(err)
		}
		check(t, path, items[:920])
	})
}

// TestOpenEmptySnapshotThenGrow covers the degenerate start: a snapshot of
// an empty tree, reopened writable, grown from nothing, flushed, reopened.
func TestOpenEmptySnapshotThenGrow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.cbb")
	created, err := Create(path, Options{Dims: 2, MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := created.Close(); err != nil {
		t.Fatal(err)
	}

	fb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Len() != 0 {
		t.Fatalf("expected empty tree, got %d objects", fb.Len())
	}
	twin, err := New(Options{Dims: 2, MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	items := corpusItems(2, 400, 17)
	for _, it := range items {
		if err := fb.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
		if err := twin.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	queries := corpusQueries(2, 15, 19)
	assertTreesEqual(t, twin, reopened, queries)
	if err := reopened.Validate(); err != nil {
		t.Fatal(err)
	}
}

// mustReadAll reads a file into a bytes.Reader for Load.
func mustReadAll(t *testing.T, path string) *bytes.Reader {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

func TestCreateFlushOpenCycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cycle.cbb")
	created, err := Create(path, Options{Dims: 2, Variant: RStarTree})
	if err != nil {
		t.Fatal(err)
	}
	if created.ReadOnly() {
		t.Fatal("created tree must stay mutable")
	}
	items := corpusItems(2, 500, 21)
	for _, it := range items {
		if err := created.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
	}
	if err := created.Close(); err != nil {
		t.Fatal(err)
	}

	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	assertTreesEqual(t, created, opened, corpusQueries(2, 20, 23))
}

// TestFileBackedConcurrentReaders exercises the lazy fault path under the
// race detector: many goroutines query a freshly opened (cold, nothing
// faulted yet) file-backed tree at once, beside a writer whose first batch
// hydrates it and whose batches then roll back or commit an insert and its
// delete, and whose flush rewrites pages — no query may see any of it.
func TestFileBackedConcurrentReaders(t *testing.T) {
	orig, err := New(Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.BulkLoad(corpusItems(2, 2000, 31)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "conc.cbb")
	f, _ := os.Create(path)
	if err := orig.SaveTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	opened.AttachBufferPoolBytes(64 << 10)
	queries := corpusQueries(2, 60, 33)
	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = orig.Count(q)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				if got := opened.Count(q); got != want[i] {
					t.Errorf("query %d: %d results, want %d", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := R(10, 10, 11, 11)
		for i := 0; i < 20; i++ {
			b, err := opened.Begin()
			if err == nil {
				err = b.Insert(r, 900000)
			}
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				b.Rollback()
				continue
			}
			if found, err := b.Delete(r, 900000); err != nil || !found {
				t.Errorf("batch %d: delete found=%v err=%v", i, found, err)
				return
			}
			if err := b.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
		if err := opened.Flush(); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if err := opened.Err(); err != nil {
		t.Fatal(err)
	}
	if err := opened.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	orig, err := New(Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.BulkLoad(corpusItems(2, 150, 41)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 1, 16, 32, 48, len(raw) / 3, len(raw) - 2} {
		if _, err := Load(bytes.NewReader(raw[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	// The read-only file opens refuse a truncated snapshot alike: a page file
	// cut short of a whole slot is corrupt however it is opened.
	path := filepath.Join(t.TempDir(), "cut.cbb")
	for _, n := range []int{len(raw) - 1, len(raw) - 100} {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		for _, open := range []struct {
			name string
			open func(string) (*Tree, error)
		}{{"OpenReadOnly", OpenReadOnly}, {"OpenMmap", OpenMmap}} {
			tree, err := open.open(path)
			if err == nil {
				tree.Close()
			}
			if !errors.Is(err, storage.ErrCorrupt) && !errors.Is(err, ErrMmapUnsupported) {
				t.Errorf("%s of a snapshot cut to %d bytes: %v, want ErrCorrupt", open.name, n, err)
			}
		}
	}
	// A flipped byte must either fail decoding or be provably harmless (it
	// landed in zero padding outside any checksummed payload), in which case
	// the decoded tree is identical to the original.
	for off := 0; off < len(raw); off += 97 {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x5a
		got, err := Load(bytes.NewReader(bad))
		if err != nil {
			continue
		}
		assertTreesEqual(t, orig, got, corpusQueries(2, 5, 43))
	}
}

// FuzzDecodeSnapshot fuzzes the whole snapshot decode path (page container,
// superblock, node index, clip table, node pages): arbitrary input must
// produce an error or a valid tree, never a panic or runaway allocation.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, opts := range []Options{
		{Dims: 2},
		{Dims: 3, Variant: HRTree, Clipping: ClipSkyline},
		{Dims: 1, Variant: QRTree, Clipping: ClipNone},
	} {
		tree, err := New(opts)
		if err != nil {
			f.Fatal(err)
		}
		if err := tree.BulkLoad(corpusItems(opts.Dims, 120, 7)); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tree.SaveTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:64])
		// The compressed v2 layout exercises a separate decode path
		// (quantised directories, delta-coded leaves, v2 clip table).
		var v2 bytes.Buffer
		if err := tree.SaveToFormat(&v2, SnapshotV2); err != nil {
			f.Fatal(err)
		}
		f.Add(v2.Bytes())
		f.Add(v2.Bytes()[:64])
	}
	// A clip table naming a node the node index does not hold: decoding must
	// reject it, not restore the stray record.
	stray, err := New(Options{Dims: 2})
	if err != nil {
		f.Fatal(err)
	}
	if err := stray.BulkLoad(corpusItems(2, 120, 7)); err != nil {
		f.Fatal(err)
	}
	table := clipindex.Table(maps.Collect(stray.tree.Records()))
	table[1<<21] = core.NewRecord([]core.ClipPoint{{Coord: Point{1, 1}, Mask: 1}}, 2)
	var bad bytes.Buffer
	if err := snapshot.SaveTo(&bad, stray.tree, table, stray.snapshotMeta()); err != nil {
		f.Fatal(err)
	}
	f.Add(bad.Bytes())
	f.Add([]byte("CBBPGF1\x00garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A decode that succeeds must yield a coherent, queryable tree.
		s := tree.Stats()
		if s.Objects != tree.Len() {
			t.Fatalf("stats/len disagree: %d vs %d", s.Objects, tree.Len())
		}
		tree.Count(corpusQueries(tree.Options().Dims, 1, 1)[0])
	})
}

// TestRollbackOnOpenedTree rolls back the first batch of a tree opened from a
// file — whose published version is the lazy one the open made, holding no
// parents or Hilbert LHVs — and then inserts enough to split nodes at every
// level: the writer must be left with a whole directory, so the tree stays
// valid and every insert stays findable.
func TestRollbackOnOpenedTree(t *testing.T) {
	for _, v := range []Variant{RStarTree, HRTree} {
		t.Run(v.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.cbb")
			tree, err := Create(path, Options{Dims: 2, Variant: v, MaxEntries: 8})
			if err != nil {
				t.Fatal(err)
			}
			items := corpusItems(2, 400, 11)
			if err := tree.BulkLoad(items); err != nil {
				t.Fatal(err)
			}
			if err := tree.Close(); err != nil {
				t.Fatal(err)
			}
			if tree, err = Open(path); err != nil {
				t.Fatal(err)
			}
			defer tree.Close()
			b, err := tree.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Insert(R(1, 1, 2, 2), 90000); err != nil {
				t.Fatal(err)
			}
			b.Rollback()
			if err := tree.Validate(); err != nil {
				t.Fatalf("after rollback: %v", err)
			}
			added := corpusItems(2, 300, 12)
			for i, it := range added {
				if err := tree.Insert(it.Rect, ObjectID(100000+i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("after inserts: %v", err)
			}
			for i, it := range added {
				found := false
				tree.Search(it.Rect, func(id ObjectID, _ Rect) bool {
					found = id == ObjectID(100000+i)
					return !found
				})
				if !found {
					t.Fatalf("insert %d not found", i)
				}
			}
		})
	}
}

// TestCommitAdvancesEpochByOne holds View.Epoch to its contract: one
// committed batch, or one auto-committed mutation, is one epoch.
func TestCommitAdvancesEpochByOne(t *testing.T) {
	for _, clipping := range []ClipMethod{ClipStairline, ClipNone} {
		tree, err := New(Options{Dims: 2, Clipping: clipping})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.BulkLoad(corpusItems(2, 200, 3)); err != nil {
			t.Fatal(err)
		}
		epoch := func() uint64 {
			v := tree.Snapshot()
			defer v.Close()
			return v.Epoch()
		}
		e := epoch()
		b, err := tree.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := b.Insert(R(float64(i), 0, float64(i)+1, 1), ObjectID(5000+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := epoch(); got != e+1 {
			t.Fatalf("%v: batch commit moved the epoch %d → %d", clipping, e, got)
		}
		if err := tree.Insert(R(3, 3, 4, 4), 6000); err != nil {
			t.Fatal(err)
		}
		if _, err := tree.Delete(R(3, 3, 4, 4), 6000); err != nil {
			t.Fatal(err)
		}
		if got := epoch(); got != e+3 {
			t.Fatalf("%v: an insert and a delete moved the epoch %d → %d", clipping, e+1, got)
		}
	}
}

// The clip layer's snapshot is the tree's published version: it follows the
// versions Materialize and a flush's commit publish, not only the commits
// the clip layer makes itself.
func TestClipSnapTracksTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "track.cbb")
	created, err := Create(path, Options{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := created.BulkLoad(corpusItems(2, 600, 41)); err != nil {
		t.Fatal(err)
	}
	if err := created.Close(); err != nil {
		t.Fatal(err)
	}
	tree, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	same := func(when string) {
		t.Helper()
		if got, want := tree.idx.Snap().Version(), tree.tree.CurrentVersion(); got != want {
			t.Fatalf("%s: the clip snapshot is version %p (epoch %d), the tree's is %p (epoch %d)", when, got, got.Epoch(), want, want.Epoch())
		}
	}
	same("after Open")
	if err := tree.tree.Materialize(); err != nil {
		t.Fatal(err)
	}
	same("after Materialize")
	for _, it := range corpusItems(2, 300, 43) {
		if err := tree.Insert(it.Rect, it.Object+10000); err != nil {
			t.Fatal(err)
		}
	}
	before := tree.tree.CurrentVersion()
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	if tree.tree.CurrentVersion() == before {
		t.Fatal("the flush published no version: no new node got a page, and the test is vacuous")
	}
	same("after a Flush that gave new nodes pages")
}
