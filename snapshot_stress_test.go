package cbb

// Stress tests for snapshot isolation: one writer applies batched
// insert/delete mutations while N reader goroutines query pinned views.
// Every batch preserves an invariant — it inserts and deletes the same
// number of objects — so the total object count is identical at every
// committed epoch. A reader that ever observes a different count has seen a
// partially applied batch (or a torn version), which is exactly what the
// copy-on-write versioning must make impossible. Run with -race (as CI
// does) to additionally verify that the reader path shares no
// unsynchronised mutable state with the writer.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

// stressFixture builds a tree with a known object population and returns it
// together with the rotation queue the writer deletes from.
func stressFixture(t *testing.T, clipping ClipMethod, fileBacked bool, n int) (*Tree, []Item) {
	t.Helper()
	opts := Options{Dims: 2, Variant: RStarTree, Clipping: clipping}
	var tree *Tree
	var err error
	if fileBacked {
		tree, err = Create(filepath.Join(t.TempDir(), "stress.cbb"), opts)
	} else {
		tree, err = New(opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	items := make([]Item, n)
	for i := range items {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		items[i] = Item{Object: ObjectID(i), Rect: R(x, y, x+rng.Float64()*6, y+rng.Float64()*6)}
		if err := tree.Insert(items[i].Rect, items[i].Object); err != nil {
			t.Fatal(err)
		}
	}
	if fileBacked {
		if err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return tree, items
}

// TestSnapshotIsolationUnderWriteStress is the snapshot-isolation stress
// test of the ISSUE 5 acceptance criteria: one writer runs count-preserving
// batches (3 inserts + 3 deletes per commit, with a Flush every few batches
// on the file-backed variant) while reader goroutines continuously pin
// views and assert that
//
//   - every pinned view reports exactly the invariant object count (any
//     other count means a torn or partially applied batch was observed),
//   - repeated queries on one view are bit-stable (same counts, same
//     batch-search results, same nearest-neighbour distances) no matter how
//     many commits happen in between,
//   - a view pinned before the writer starts still serves its original
//     epoch after every batch has committed.
func TestSnapshotIsolationUnderWriteStress(t *testing.T) {
	const (
		base    = 1500
		batches = 40
		readers = 4
	)
	for _, fileBacked := range []bool{false, true} {
		for _, clipping := range []ClipMethod{ClipStairline, ClipNone} {
			name := fmt.Sprintf("file=%v/clip=%v", fileBacked, clipping)
			t.Run(name, func(t *testing.T) {
				tree, items := stressFixture(t, clipping, fileBacked, base)
				defer tree.Close()
				universe := R(-10, -10, 1100, 1100)

				before := tree.Snapshot()
				defer before.Close()
				epoch0 := before.Epoch()

				var stop atomic.Bool
				var wg sync.WaitGroup
				errs := make(chan error, readers+1)
				fail := func(format string, args ...interface{}) {
					select {
					case errs <- fmt.Errorf(format, args...):
					default:
					}
				}

				// Writer: count-preserving batches over a rotation queue.
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer stop.Store(true)
					rng := rand.New(rand.NewSource(99))
					queue := append([]Item(nil), items...)
					nextID := ObjectID(base)
					for b := 0; b < batches; b++ {
						batch, err := tree.Begin()
						if err != nil {
							fail("begin: %v", err)
							return
						}
						for k := 0; k < 3; k++ {
							x, y := rng.Float64()*1000, rng.Float64()*1000
							it := Item{Object: nextID, Rect: R(x, y, x+rng.Float64()*6, y+rng.Float64()*6)}
							nextID++
							if err := batch.Insert(it.Rect, it.Object); err != nil {
								fail("batch insert: %v", err)
								return
							}
							queue = append(queue, it)
						}
						for k := 0; k < 3; k++ {
							victim := queue[0]
							queue = queue[1:]
							found, err := batch.Delete(victim.Rect, victim.Object)
							if err != nil || !found {
								fail("batch delete: found=%v err=%v", found, err)
								return
							}
						}
						if err := batch.Commit(); err != nil {
							fail("commit: %v", err)
							return
						}
						if fileBacked && b%8 == 7 {
							if err := tree.Flush(); err != nil {
								fail("flush: %v", err)
								return
							}
						}
					}
				}()

				// Readers: pin a view, interrogate it twice, close it.
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(1000 + r)))
						for i := 0; !stop.Load() || i < 4; i++ {
							v := tree.Snapshot()
							// Invariant: every committed epoch holds exactly
							// `base` objects.
							if got := v.Count(universe); got != base {
								fail("reader %d: count %d at epoch %d, want %d (torn batch?)", r, got, v.Epoch(), base)
								v.Close()
								return
							}
							if got := v.Len(); got != base {
								fail("reader %d: Len %d at epoch %d, want %d", r, got, v.Epoch(), base)
								v.Close()
								return
							}
							// Stability: the same view answers identically no
							// matter how many commits happen around it.
							x, y := rng.Float64()*900, rng.Float64()*900
							q := R(x, y, x+60, y+60)
							c1, c2 := v.Count(q), v.Count(q)
							if c1 != c2 {
								fail("reader %d: view count drifted %d -> %d", r, c1, c2)
								v.Close()
								return
							}
							res, err := v.BatchSearch([]Rect{q, universe}, BatchOptions{Workers: 2})
							if err != nil {
								fail("reader %d: batch: %v", r, err)
								v.Close()
								return
							}
							if res.Counts[0] != c1 || res.Counts[1] != base {
								fail("reader %d: batch counts %v, want [%d %d]", r, res.Counts, c1, base)
								v.Close()
								return
							}
							nn1 := v.NearestNeighbors(5, Pt(x, y))
							nn2 := v.NearestNeighbors(5, Pt(x, y))
							if len(nn1) != 5 || len(nn2) != 5 {
								fail("reader %d: kNN returned %d/%d results", r, len(nn1), len(nn2))
								v.Close()
								return
							}
							for k := range nn1 {
								if nn1[k].Object != nn2[k].Object || nn1[k].DistSq != nn2[k].DistSq {
									fail("reader %d: kNN drifted on one view at rank %d", r, k)
									v.Close()
									return
								}
								if k > 0 && nn1[k].DistSq < nn1[k-1].DistSq {
									fail("reader %d: kNN out of order", r)
									v.Close()
									return
								}
							}
							v.Close()
							if i > 2 && stop.Load() {
								break
							}
						}
					}(r)
				}

				// One more reader runs view joins (STT reads nodes through
				// Version.Node) concurrently with the writer — the
				// regression case for the parent-pointer data race.
				wg.Add(1)
				go func() {
					defer wg.Done()
					probes := []Item{{Object: 1, Rect: universe}}
					for !stop.Load() {
						v := tree.Snapshot()
						inlj, err := JoinItems(v, probes, JoinOptions{Workers: 2}, nil)
						if err != nil || inlj.Pairs != base {
							fail("join reader: INLJ pairs %d err %v, want %d", inlj.Pairs, err, base)
							v.Close()
							return
						}
						stt, err := Join(v, before, JoinOptions{Workers: 2}, nil)
						if err != nil || stt.Pairs == 0 {
							fail("join reader: STT pairs %d err %v", stt.Pairs, err)
							v.Close()
							return
						}
						v.Close()
					}
				}()

				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}

				// The pre-writer view still serves its original epoch.
				if got := before.Epoch(); got != epoch0 {
					t.Fatalf("pinned view changed epoch: %d -> %d", epoch0, got)
				}
				if got := before.Count(universe); got != base {
					t.Fatalf("pinned pre-writer view count %d, want %d", got, base)
				}
				// And the final committed state is intact.
				if got := tree.Count(universe); got != base {
					t.Fatalf("final count %d, want %d", got, base)
				}
				if err := tree.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestBatchAtomicityAndViewJoins checks the remaining view surfaces without
// goroutine scheduling in the way: mutations inside an open batch are
// invisible until Commit (to queries and to freshly pinned views), and the
// view-based joins answer at the pinned epoch while the live join tracks
// the new commit.
func TestBatchAtomicityAndViewJoins(t *testing.T) {
	tree, items := stressFixture(t, ClipStairline, false, 800)
	universe := R(-10, -10, 1100, 1100)

	v := tree.Snapshot()
	defer v.Close()

	batch, err := tree.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		x := float64(i * 3)
		if err := batch.Insert(R(x, 0, x+1, 1), ObjectID(9000+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Not yet committed: neither the old view nor a new one sees the batch.
	if got := v.Count(universe); got != 800 {
		t.Fatalf("pinned view sees open batch: %d", got)
	}
	mid := tree.Snapshot()
	if got := mid.Count(universe); got != 800 {
		t.Fatalf("mid-batch snapshot sees open batch: %d", got)
	}
	mid.Close()
	if err := batch.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := batch.Commit(); err == nil {
		t.Fatal("double commit must fail")
	}
	if got := tree.Count(universe); got != 810 {
		t.Fatalf("post-commit count %d, want 810", got)
	}
	if got := v.Count(universe); got != 800 {
		t.Fatalf("pinned view moved after commit: %d", got)
	}

	// View-based INLJ answers at the pinned epoch; the live join sees the
	// committed batch.
	probes := []Item{{Object: 1, Rect: R(-5, -5, 1050, 1050)}}
	onView, err := JoinItems(v, probes, JoinOptions{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if onView.Pairs != 800 {
		t.Fatalf("view INLJ pairs %d, want 800", onView.Pairs)
	}
	live, err := JoinItems(tree, probes, JoinOptions{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if live.Pairs != 810 {
		t.Fatalf("live INLJ pairs %d, want 810", live.Pairs)
	}

	// View-based STT: join the pinned view with a second tree; the pair
	// count must match the same join run against a quiesced copy at that
	// epoch (the live STT on the mutated tree differs).
	other, err := New(Options{Dims: 2, Variant: RStarTree, Clipping: ClipStairline})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	ov := other.Snapshot()
	defer ov.Close()
	onViews, err := Join(v, ov, JoinOptions{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SynchronizedTreeTraversalJoin(other, other, nil) // self-join: every item pairs with itself at least
	if err != nil {
		t.Fatal(err)
	}
	if onViews.Pairs == 0 || seq.Pairs == 0 {
		t.Fatal("joins found no pairs; fixture is vacuous")
	}
	// The epoch-pinned join must equal the INLJ of the same two states.
	fromINLJ, err := JoinItems(v, items, JoinOptions{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if onViews.Pairs != fromINLJ.Pairs {
		t.Fatalf("view STT pairs %d != view INLJ pairs %d", onViews.Pairs, fromINLJ.Pairs)
	}
}

// TestDeferredPagesReleasedOnClose pins a view, deletes enough objects to
// dissolve nodes (their pages' release is deferred while the older epoch is
// pinned), flushes, and closes the tree with the view still open. Close
// must release the deferred pages anyway — otherwise they would stay
// marked in-use on disk forever, referenced by nothing — so the reopened
// file must pass the same page-accounting audit cbbinspect -verify runs:
// every in-use slot referenced exactly once, the rest on the free list.
func TestDeferredPagesReleasedOnClose(t *testing.T) {
	tree, items := stressFixture(t, ClipStairline, true, 1200)
	path := tree.pager.Path()

	v := tree.Snapshot()
	defer v.Close()
	for _, it := range items[:900] {
		if found, err := tree.Delete(it.Rect, it.Object); err != nil || !found {
			t.Fatalf("delete: found=%v err=%v", found, err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flush must refuse to run while a batch is open (self-deadlock guard).
	b, err := tree.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Flush(); err == nil || !strings.Contains(err.Error(), "open batch") {
		t.Fatalf("Flush with open batch: err=%v, want open-batch error", err)
	}
	if err := tree.Close(); err == nil || !strings.Contains(err.Error(), "open batch") {
		t.Fatalf("Close with open batch: err=%v, want open-batch error", err)
	}
	b.Rollback()
	if err := tree.Close(); err != nil { // view still pinned
		t.Fatal(err)
	}

	// Audit the file: in-use slots == referenced slots, exactly once each.
	snap, fp, err := snapshot.OpenFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	refs := make(map[storage.PageID]int)
	refs[snapshot.SuperPage]++
	for _, pid := range snap.Pages {
		refs[pid]++
	}
	for i := 0; i < snap.Layout.IndexPages; i++ {
		refs[snap.Layout.IndexFirst+storage.PageID(i)]++
	}
	for i := 0; i < snap.Layout.ClipPages; i++ {
		refs[snap.Layout.ClipFirst+storage.PageID(i)]++
	}
	slots, err := fp.Slots()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range slots {
		switch n := refs[s.ID]; {
		case s.InUse && n == 0:
			t.Errorf("page %d in use but unreferenced (deferred free leaked)", s.ID)
		case s.InUse && n > 1:
			t.Errorf("page %d referenced %d times", s.ID, n)
		case !s.InUse && n > 0:
			t.Errorf("page %d free but referenced", s.ID)
		}
	}
}

// TestBatchRollback checks the error-path counterpart of Commit: a rolled
// back batch leaves no trace — readers, structural accessors, the writer
// lock, and the tree invariants all return to the pre-batch state, for
// in-memory and file-backed trees, clipped and plain.
func TestBatchRollback(t *testing.T) {
	for _, fileBacked := range []bool{false, true} {
		for _, clipping := range []ClipMethod{ClipStairline, ClipNone} {
			t.Run(fmt.Sprintf("file=%v/clip=%v", fileBacked, clipping), func(t *testing.T) {
				tree, items := stressFixture(t, clipping, fileBacked, 600)
				defer tree.Close()
				universe := R(-10, -10, 1100, 1100)
				wantBounds := tree.Bounds()

				batch, err := tree.Begin()
				if err != nil {
					t.Fatal(err)
				}
				// Mutate heavily: inserts, deletes, enough to split and
				// dissolve nodes.
				for i := 0; i < 200; i++ {
					x := float64(i)
					if err := batch.Insert(R(x, 2000, x+1, 2001), ObjectID(50000+i)); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 150; i++ {
					if found, err := batch.Delete(items[i].Rect, items[i].Object); err != nil || !found {
						t.Fatalf("delete %d: found=%v err=%v", i, found, err)
					}
				}
				batch.Rollback()
				batch.Rollback() // idempotent
				if err := batch.Commit(); err == nil {
					t.Fatal("commit after rollback must fail")
				}

				// The writer lock is free again and the state is pre-batch.
				if got := tree.Count(universe); got != 600 {
					t.Fatalf("count after rollback %d, want 600", got)
				}
				if got := tree.Len(); got != 600 {
					t.Fatalf("Len after rollback %d, want 600", got)
				}
				if !tree.Bounds().Equal(wantBounds) {
					t.Fatalf("bounds changed by rollback: %v != %v", tree.Bounds(), wantBounds)
				}
				if err := tree.Validate(); err != nil {
					t.Fatalf("invariants after rollback: %v", err)
				}
				// Deleted victims are back, the batch inserts are gone, and
				// new mutations work (parent pointers were restored).
				if n := tree.Count(R(-1, 1999, 300, 2002)); n != 0 {
					t.Fatalf("%d rolled-back inserts still visible", n)
				}
				if err := tree.Insert(R(7, 7, 8, 8), 77777); err != nil {
					t.Fatal(err)
				}
				if found, err := tree.Delete(R(7, 7, 8, 8), 77777); err != nil || !found {
					t.Fatalf("post-rollback mutation: found=%v err=%v", found, err)
				}
				if err := tree.Validate(); err != nil {
					t.Fatal(err)
				}
				if fileBacked {
					if err := tree.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}
