package cbb

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"cbb/internal/clipindex"
	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

// faultyStore is a page store whose k-th Read, counted from 1 over the
// store's life, fails; with k = 0 none does, and reads then measures how many
// a run takes.
type faultyStore struct {
	storage.PageStore
	k     int64
	reads *atomic.Int64
}

var errInjected = errors.New("injected page read failure")

func (s faultyStore) Read(id storage.PageID) ([]byte, storage.PageKind, error) {
	if s.reads.Add(1) == s.k {
		return nil, 0, errInjected
	}
	return s.PageStore.Read(id)
}

// openFaulty opens the snapshot file at path read-only over a faultyStore
// failing its k-th read, through a FilePager or a mapping; it returns the
// tree, the store's read count and the function that closes the store.
func openFaulty(t *testing.T, path string, mmap bool, k int64) (*Tree, *atomic.Int64, func()) {
	t.Helper()
	var snap *snapshot.Snapshot
	var store storage.PageStore
	var closeStore func() error
	if mmap {
		ms, err := storage.OpenMmapStore(path)
		if errors.Is(err, storage.ErrMmapUnsupported) {
			t.Skip(err)
		} else if err != nil {
			t.Fatal(err)
		}
		store, closeStore = ms, ms.Close
		snap, err = snapshot.Read(ms)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		s, fp, err := snapshot.OpenFile(path, true)
		if err != nil {
			t.Fatal(err)
		}
		snap, store, closeStore = s, fp, fp.Close
	}
	reads := new(atomic.Int64)
	base, err := snap.OpenTree(faultyStore{PageStore: store, k: k, reads: reads}, true)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := restore(snap, base)
	if err != nil {
		t.Fatal(err)
	}
	return tr, reads, func() {
		if err := closeStore(); err != nil {
			t.Error(err)
		}
	}
}

// TestExactOrErrorMatrix holds every read with an error result to "the exact
// answer or an error, never a subset". One snapshot is served from a v1 file
// through a FilePager, and from a v2 file through a FilePager and a mapping;
// the page store fails its k-th read, for every k up to the number of reads a
// full scan takes and one beyond. Each run opens the file afresh, so the
// fault lands on a page nothing has read yet, and its answer is compared with
// the same call on the in-memory tree the file was written from.
func TestExactOrErrorMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	opts := Options{Dims: 2, MaxEntries: 8, MinEntries: 3}
	src, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	partner, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	probes := randShardItems(rng, 120, 2)
	if err := errors.Join(src.BulkLoad(randShardItems(rng, 400, 2)), partner.BulkLoad(probes)); err != nil {
		t.Fatal(err)
	}
	queries := append(randShardQueries(rng, 12, 2), shardUniverse(2))
	points := []Point{{500, 500}, {3, 997}, {-50, 420}}

	// Each call renders its answer as a string, to be compared whole.
	calls := []struct {
		name string
		run  func(tr *Tree) (string, error)
	}{
		{"BatchSearch/1", func(tr *Tree) (string, error) {
			res, err := BatchSearch(tr, queries, BatchOptions{Workers: 1, Collect: true})
			return fmt.Sprint(res.Counts, res.Items), err
		}},
		{"BatchSearch/4", func(tr *Tree) (string, error) {
			res, err := BatchSearch(tr, queries, BatchOptions{Workers: 4, Collect: true})
			return fmt.Sprint(res.Counts, res.Items), err
		}},
		{"JoinItems", func(tr *Tree) (string, error) {
			res, err := JoinItems(tr, probes, JoinOptions{Workers: 2}, nil)
			return fmt.Sprint(res.Pairs), err
		}},
		{"Join", func(tr *Tree) (string, error) {
			res, err := Join(tr, partner, JoinOptions{Workers: 2}, nil)
			return fmt.Sprint(res.Pairs), err
		}},
		{"clipindex.NearestNeighbors", func(tr *Tree) (string, error) {
			var out []string
			for _, p := range points {
				nn, _, err := clipindex.NearestNeighbors(10, p, tr.current()...)
				if err != nil {
					return "", err
				}
				out = append(out, fmt.Sprint(nn))
			}
			return fmt.Sprint(out), nil
		}},
		{"AllItems", func(tr *Tree) (string, error) {
			items, err := tr.tree.AllItems()
			sortItems(items)
			return fmt.Sprint(items), err
		}},
	}
	want := make([]string, len(calls))
	for i, c := range calls {
		if want[i], err = c.run(src); err != nil {
			t.Fatalf("%s on the in-memory tree: %v", c.name, err)
		}
	}

	dir := t.TempDir()
	v1, v2 := filepath.Join(dir, "v1.cbb"), filepath.Join(dir, "v2.cbb")
	if err := errors.Join(src.WriteSnapshot(v1, SnapshotV1), src.WriteSnapshot(v2, SnapshotV2)); err != nil {
		t.Fatal(err)
	}
	for _, store := range []struct {
		name string
		path string
		mmap bool
	}{{"v1/pager", v1, false}, {"v2/pager", v2, false}, {"v2/mmap", v2, true}} {
		t.Run(store.name, func(t *testing.T) {
			tr, reads, done := openFaulty(t, store.path, store.mmap, 0)
			if _, err := tr.tree.AllItems(); err != nil {
				t.Fatal(err)
			}
			scan := reads.Load()
			done()
			t.Logf("a full scan reads %d pages", scan)
			for i, c := range calls {
				faults := 0
				for k := int64(1); k <= scan+1; k++ {
					tr, _, done := openFaulty(t, store.path, store.mmap, k)
					got, err := c.run(tr)
					done()
					switch {
					case errors.Is(err, errInjected):
						faults++
					case err != nil:
						t.Fatalf("%s, read %d failing: %v, want the injected fault", c.name, k, err)
					case got != want[i]:
						t.Fatalf("%s, read %d failing: no error and not the exact answer:\n got %.200s\nwant %.200s", c.name, k, got, want[i])
					}
				}
				if faults == 0 || int64(faults) > scan {
					t.Errorf("%s: %d of %d runs hit the fault; want some, and none once k is past a full scan", c.name, faults, scan+1)
				}
			}
		})
	}
}
