package cbb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cbb/internal/storage"
)

// This file tests the fast batch-ingest pipeline end to end at the public
// surface: Tree.InsertItems / Batch.InsertItems / ShardedBatch.InsertItems.
//
// The equivalence contract (see internal/rtree/ingest.go): a batch insert
// indexes exactly the objects a per-item insert loop would — identical
// result sets for every query — but may build a different (equally valid)
// tree shape, because the fast path routes Hilbert-sorted runs and grafts
// bulk-packed subtrees. What IS bit-identical is the batch path against
// itself: an in-memory tree and a file-backed tree fed the same seed and the
// same batch produce identical structure, stats, traversal order, and
// leaf/dir read I/O.

// sortedItems renders SearchAll results order-independently.
func sortedItemSet(results []Item) map[string]int {
	set := make(map[string]int, len(results))
	for _, it := range results {
		set[fmt.Sprintf("%d:%v", it.Object, it.Rect)]++
	}
	return set
}

func assertSameResults(t *testing.T, label string, want, got []Item) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	ws, gs := sortedItemSet(want), sortedItemSet(got)
	for k, n := range ws {
		if gs[k] != n {
			t.Fatalf("%s: result multiset differs at %s (%d vs %d)", label, k, gs[k], n)
		}
	}
}

// TestBatchInsertEquivalenceMatrix is the batch-vs-per-item matrix: dims
// 1-3, every clip method, batch sizes from trivial to graft-heavy. Each cell
// checks that InsertItems and a per-item Insert loop index exactly the same
// objects (universe query and spot queries), and that the batched tree
// validates.
func TestBatchInsertEquivalenceMatrix(t *testing.T) {
	methods := []ClipMethod{ClipNone, ClipStairline, ClipSkyline}
	sizes := []int{8, 256, 4096}
	for d := 1; d <= 3; d++ {
		for _, m := range methods {
			for _, size := range sizes {
				if size == 4096 && d != 2 {
					continue // bound runtime; the graft-heavy case runs in 2-D
				}
				name := fmt.Sprintf("%dd/%v/batch=%d", d, m, size)
				t.Run(name, func(t *testing.T) {
					seed := corpusItems(d, 200, 17)
					batch := corpusItems(d, size, 19)
					for i := range batch {
						batch[i].Object = ObjectID(100000 + i)
					}
					opts := Options{Dims: d, Clipping: m, MaxEntries: 16, MinEntries: 6}
					batched, err := New(opts)
					if err != nil {
						t.Fatal(err)
					}
					perItem, err := New(opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, tr := range []*Tree{batched, perItem} {
						for _, it := range seed {
							if err := tr.Insert(it.Rect, it.Object); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := batched.InsertItems(batch); err != nil {
						t.Fatal(err)
					}
					for _, it := range batch {
						if err := perItem.Insert(it.Rect, it.Object); err != nil {
							t.Fatal(err)
						}
					}
					if batched.Len() != perItem.Len() {
						t.Fatalf("Len %d, per-item %d", batched.Len(), perItem.Len())
					}
					if err := batched.Validate(); err != nil {
						t.Fatalf("Validate: %v", err)
					}
					uni := Rect{Lo: make(Point, d), Hi: make(Point, d)}
					for j := 0; j < d; j++ {
						uni.Lo[j], uni.Hi[j] = -1e6, 1e6
					}
					assertSameResults(t, "universe", perItem.SearchAll(uni), batched.SearchAll(uni))
					for i, q := range corpusQueries(d, 25, 23) {
						assertSameResults(t, fmt.Sprintf("query %d", i), perItem.SearchAll(q), batched.SearchAll(q))
					}
				})
			}
		}
	}
}

// TestBatchInsertFileBackedTwin pins the determinism half of the contract:
// the batch path against itself is bit-identical between an in-memory tree
// and a file-backed tree — same stats (node counts, clip points), same
// SearchAll order, same leaf/dir read I/O — and survives a flush/reopen
// cycle unchanged.
func TestBatchInsertFileBackedTwin(t *testing.T) {
	for _, m := range []ClipMethod{ClipNone, ClipStairline, ClipSkyline} {
		t.Run(fmt.Sprintf("%v", m), func(t *testing.T) {
			opts := Options{Dims: 2, Clipping: m, MaxEntries: 16, MinEntries: 6}
			seed := corpusItems(2, 300, 31)
			batch := corpusItems(2, 4096, 37)
			for i := range batch {
				batch[i].Object = ObjectID(100000 + i)
			}
			queries := corpusQueries(2, 40, 41)

			mem, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "twin.cbb")
			file, err := Create(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range []*Tree{mem, file} {
				for _, it := range seed {
					if err := tr.Insert(it.Rect, it.Object); err != nil {
						t.Fatal(err)
					}
				}
				if err := tr.InsertItems(batch); err != nil {
					t.Fatal(err)
				}
			}
			assertTreesEqual(t, mem, file, queries)

			mem.ResetIOStats()
			file.ResetIOStats()
			for _, q := range queries {
				mem.Search(q, func(ObjectID, Rect) bool { return true })
				file.Search(q, func(ObjectID, Rect) bool { return true })
			}
			ms, fs := mem.IOStats(), file.IOStats()
			if ms.LeafReads != fs.LeafReads || ms.DirReads != fs.DirReads {
				t.Fatalf("read I/O diverges: mem leaf=%d dir=%d, file leaf=%d dir=%d",
					ms.LeafReads, ms.DirReads, fs.LeafReads, fs.DirReads)
			}
			if ms.LeafReads == 0 {
				t.Fatal("query batch charged no leaf reads")
			}
			if err := file.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			assertTreesEqual(t, mem, reopened, queries)
			if err := reopened.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBatchFlushGroupCommit proves the group-commit property at the public
// surface: flushing a multi-thousand-item batch writes all its dirty pages
// through exactly one WAL commit — one WAL write, one fsync — however many
// pages the batch dirtied.
func TestBatchFlushGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.cbb")
	tr, err := Create(path, Options{Dims: 2, Clipping: ClipStairline, MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	base := tr.pager.CommitStats() // Create writes the initial empty snapshot
	if err := tr.InsertItems(corpusItems(2, 8192, 43)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	cs := tr.pager.CommitStats()
	if c, f := cs.Commits-base.Commits, cs.WALFsyncs-base.WALFsyncs; c != 1 || f != 1 {
		t.Fatalf("flush of one batch cost %d commits / %d WAL fsyncs, want 1 / 1", c, f)
	}
	if pages := cs.Pages - base.Pages; pages < 100 {
		t.Fatalf("batch commit carried only %d pages; expected a large group", pages)
	}
}

// batchCrashState classifies a reopened tree as the pre-batch state, the
// post-batch state, or neither (which fails the test).
func batchCrashState(t *testing.T, label, path string, pre, post *Tree, queries []Rect) string {
	t.Helper()
	reopened, err := Open(path)
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer reopened.Close()
	if err := reopened.Validate(); err != nil {
		t.Fatalf("%s: recovered tree invalid: %v", label, err)
	}
	matches := func(want *Tree) bool {
		if reopened.Len() != want.Len() {
			return false
		}
		for _, q := range queries {
			if reopened.Count(q) != want.Count(q) {
				return false
			}
		}
		return true
	}
	switch {
	case matches(post):
		return "post"
	case matches(pre):
		return "pre"
	default:
		t.Fatalf("%s: recovered state matches neither pre-batch (%d objects) nor post-batch (%d objects): got %d",
			label, pre.Len(), post.Len(), reopened.Len())
		return ""
	}
}

// TestBatchCommitCrashMatrix is the crash-injection matrix for a
// group-committed batch: a file-backed tree ingests one multi-thousand-item
// batch, and the flush is interrupted at every stage — after the WAL is
// durable, before applying the i-th page, and with the WAL truncated or
// corrupted at swept offsets. Reopening must always yield exactly the
// pre-batch or the post-batch state, never a partial batch.
func TestBatchCommitCrashMatrix(t *testing.T) {
	const seedN, batchN = 300, 3000
	opts := Options{Dims: 2, Clipping: ClipStairline, MaxEntries: 16, MinEntries: 6}
	seed := corpusItems(2, seedN, 53)
	batch := corpusItems(2, batchN, 59)
	for i := range batch {
		batch[i].Object = ObjectID(100000 + i)
	}
	queries := corpusQueries(2, 25, 61)

	// Twins of the two legal recovery states.
	pre, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	post, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tw := range []*Tree{pre, post} {
		for _, it := range seed {
			if err := tw.Insert(it.Rect, it.Object); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := post.InsertItems(batch); err != nil {
		t.Fatal(err)
	}

	// mkCrashed builds the seeded file, ingests the batch, and crashes the
	// flush once its WAL is durable and skip page records are applied; it
	// returns the file path with the abandoned (dead-process) state on disk.
	boom := errors.New("injected crash")
	mkCrashed := func(t *testing.T, skip int) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "crash.cbb")
		created, err := Create(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range seed {
			if err := created.Insert(it.Rect, it.Object); err != nil {
				t.Fatal(err)
			}
		}
		if err := created.Close(); err != nil {
			t.Fatal(err)
		}
		crashAfterWAL(t, skip, boom)
		fb, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fb.InsertItems(batch); err != nil {
			t.Fatal(err)
		}
		if err := fb.Flush(); !errors.Is(err, boom) {
			t.Fatalf("flush error = %v, want injected crash", err)
		}
		// Abandon fb like a dead process; the reopen below is the recovery.
		return path
	}

	t.Run("after-WAL", func(t *testing.T) {
		path := mkCrashed(t, 0)
		if s := batchCrashState(t, "after-WAL", path, pre, post, queries); s != "post" {
			t.Fatalf("committed WAL recovered to %q, want post-batch state", s)
		}
	})

	t.Run("mid-apply", func(t *testing.T) {
		for _, at := range []int{0, 1, 7, 100} {
			at := at
			t.Run(fmt.Sprintf("record=%d", at), func(t *testing.T) {
				path := mkCrashed(t, at)
				if s := batchCrashState(t, "mid-apply", path, pre, post, queries); s != "post" {
					t.Fatalf("crash before record %d recovered to %q, want post-batch state", at, s)
				}
			})
		}
	})

	t.Run("wal-cut-and-corrupt", func(t *testing.T) {
		// One crashed flush gives us the pristine pre-state page file and
		// the full WAL; every cut/corrupt case restores both and reopens.
		path := mkCrashed(t, 0)
		walPath := path + storage.WALSuffix
		wal, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		restore := func(walBytes []byte) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, walBytes, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Truncation sweep: boundaries plus evenly spaced interior cuts.
		cuts := []int{0, 1, 15, 16, 17, len(wal) - 1, len(wal)}
		for i := 1; i <= 16; i++ {
			cuts = append(cuts, len(wal)*i/17)
		}
		sawPre := false
		for _, cut := range cuts {
			if cut < 0 || cut > len(wal) {
				continue
			}
			restore(wal[:cut])
			state := batchCrashState(t, fmt.Sprintf("cut=%d", cut), path, pre, post, queries)
			if cut < len(wal) && state == "post" {
				t.Fatalf("truncated WAL (%d of %d bytes) replayed as committed", cut, len(wal))
			}
			if cut == len(wal) && state != "post" {
				t.Fatalf("complete WAL not replayed")
			}
			if state == "pre" {
				sawPre = true
			}
		}
		if !sawPre {
			t.Fatal("truncation sweep never recovered the pre-batch state")
		}
		// Corruption sweep: flip one byte at sampled offsets. Recovery must
		// yield a clean pre state (log discarded as torn) — or post only if
		// the flip landed in bytes the decoder never checks.
		for i := 0; i <= 20; i++ {
			off := len(wal) * i / 21
			if off >= len(wal) {
				off = len(wal) - 1
			}
			bad := append([]byte(nil), wal...)
			bad[off] ^= 0x5a
			restore(bad)
			batchCrashState(t, fmt.Sprintf("flip=%d", off), path, pre, post, queries)
		}
	})
}

// TestShardedBatchInsertItems checks the cross-shard batch ingest: items
// spanning every shard go through ShardedBatch.InsertItems, stay invisible
// until Commit, land atomically across shards, and match a per-item sharded
// twin on every query.
func TestShardedBatchInsertItems(t *testing.T) {
	uni := Rect{Lo: Point{0, 0}, Hi: Point{1000, 1000}}
	opts := ShardedOptions{
		Options: Options{Dims: 2, Clipping: ClipStairline, MaxEntries: 16, MinEntries: 6, Universe: uni},
		Shards:  4,
	}
	st, err := NewSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	items := corpusItems(2, 5000, 67)

	sb, err := st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.InsertItems(items); err != nil {
		t.Fatal(err)
	}
	v := st.Snapshot()
	if n := v.Count(uni); n != 0 {
		t.Fatalf("open cross-shard batch leaked %d objects to a view", n)
	}
	v.Close()
	if err := sb.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := twin.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != twin.Len() {
		t.Fatalf("Len %d, per-item twin %d", st.Len(), twin.Len())
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	lens := st.ShardLens()
	populated := 0
	for _, n := range lens {
		if n > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("batch landed in %d shards (%v); expected a cross-shard spread", populated, lens)
	}
	assertSameResults(t, "universe", twin.SearchAll(uni), st.SearchAll(uni))
	for i, q := range corpusQueries(2, 30, 71) {
		assertSameResults(t, fmt.Sprintf("query %d", i), twin.SearchAll(q), st.SearchAll(q))
	}

	// ShardedTree.InsertItems (per-shard atomicity) indexes the same set too.
	st2, err := NewSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.InsertItems(items); err != nil {
		t.Fatal(err)
	}
	if err := st2.Validate(); err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "sharded InsertItems", twin.SearchAll(uni), st2.SearchAll(uni))
}

// TestBatchIngestRacingReaders races large batch commits against pinned
// readers: every view must observe a whole number of committed batches —
// never a partial batch — and counts must be monotone per reader goroutine.
// Run with -race, this also exercises the batch fast path (grafts, shared
// traces, clip-table rebuilds) under the race detector.
func TestBatchIngestRacingReaders(t *testing.T) {
	const rounds, batchSize, readers = 8, 1500, 4
	tr, err := New(Options{Dims: 2, Clipping: ClipStairline, MaxEntries: 16, MinEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	uni := Rect{Lo: Point{-1e6, -1e6}, Hi: Point{1e6, 1e6}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := tr.Snapshot()
				n := v.Count(uni)
				v.Close()
				if n%batchSize != 0 {
					errs <- fmt.Errorf("view observed %d objects: a torn batch (batch size %d)", n, batchSize)
					return
				}
				if n < last {
					errs <- fmt.Errorf("count went backwards: %d after %d", n, last)
					return
				}
				last = n
			}
		}()
	}
	for round := 0; round < rounds; round++ {
		batch := corpusItems(2, batchSize, int64(100+round))
		for i := range batch {
			batch[i].Object = ObjectID(round*batchSize + i)
		}
		if err := tr.InsertItems(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if tr.Len() != rounds*batchSize {
		t.Fatalf("Len %d, want %d", tr.Len(), rounds*batchSize)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
