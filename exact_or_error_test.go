package cbb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"cbb/internal/clipindex"
	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

// faultyStore is a page store that tampers with its k-th Read, counted from 1
// over the store's life: the read fails, or with short set it returns the
// first half of the payload. With k = 0 it tampers with none, and its log
// then shows which pages a run reads.
type faultyStore struct {
	storage.PageStore
	k     int64
	short bool
	log   *readLog
}

// readLog records the pages a store read, in the order the reads began.
type readLog struct {
	mu    sync.Mutex
	pages []storage.PageID
}

// add records a read of page id and returns its number, counted from 1.
func (l *readLog) add(id storage.PageID) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pages = append(l.pages, id)
	return int64(len(l.pages))
}

func (l *readLog) len() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.pages))
}

var errInjected = errors.New("injected page read failure")

func (s faultyStore) Read(id storage.PageID) ([]byte, storage.PageKind, error) {
	if s.log.add(id) != s.k {
		return s.PageStore.Read(id)
	}
	if !s.short {
		return nil, 0, errInjected
	}
	data, kind, err := s.PageStore.Read(id)
	return data[:len(data)/2], kind, err
}

// openFaulty opens the snapshot file at path read-only over a faultyStore
// tampering with its k-th read, through a FilePager or a mapping; it returns
// the tree, the store's read log and the function that closes the store.
func openFaulty(t *testing.T, path string, mmap bool, k int64, short bool) (*Tree, *readLog, func()) {
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
	log := new(readLog)
	base, err := snap.OpenTree(faultyStore{PageStore: store, k: k, short: short, log: log}, true)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := restore(snap, base)
	if err != nil {
		t.Fatal(err)
	}
	return tr, log, func() {
		if err := closeStore(); err != nil {
			t.Error(err)
		}
	}
}

// flipPayloadByte writes a copy of the page file at path with one byte in the
// middle of page id's payload flipped, and returns the copy's path. A page
// file is a 32-byte header (the page size at offset 12), then one slot per
// page from id 1: a 16-byte slot header (the payload length at offset 4)
// and the page.
func flipPayloadByte(t *testing.T, path string, id storage.PageID) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pageSize := int(binary.LittleEndian.Uint32(raw[12:]))
	slot := 32 + int(id-1)*(16+pageSize)
	length := int(binary.LittleEndian.Uint32(raw[slot+4:]))
	raw[slot+16+length/2] ^= 0x10
	flipped := filepath.Join(t.TempDir(), filepath.Base(path))
	if err := os.WriteFile(flipped, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	return flipped
}

// TestExactOrErrorMatrix holds every read with an error result to "the exact
// answer or an error, never a subset". One snapshot is served from a v1 file
// through a FilePager, and from a v2 file through a FilePager and a mapping,
// under three faults:
//   - read error: the page store fails its k-th read;
//   - short read: its k-th read returns the first half of the payload, and
//     the node decoder's error is the answer;
//   - bit flip: a copy of the file has one payload byte flipped, in each page
//     a clean run of the call reads in turn; the store's checksum catches it.
//
// For the first two, k runs over every read a full scan takes and one beyond. Each run opens the file afresh, so the
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
	wantAnswer := make([]string, len(calls))
	for i, c := range calls {
		if wantAnswer[i], err = c.run(src); err != nil {
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
			tr, log, done := openFaulty(t, store.path, store.mmap, 0, false)
			if _, err := tr.tree.AllItems(); err != nil {
				t.Fatal(err)
			}
			scan := log.len()
			done()
			t.Logf("a full scan reads %d pages", scan)

			// check runs one call with its fault at k and holds it to the exact
			// answer or an error, one that wraps want unless want is nil; it
			// reports whether the call erred.
			check := func(t *testing.T, i int, k int64, tr *Tree, done func(), want error) bool {
				t.Helper()
				got, err := calls[i].run(tr)
				done()
				switch {
				case err != nil && want != nil && !errors.Is(err, want):
					t.Fatalf("%s, fault at read %d: %v, want an error wrapping %v", calls[i].name, k, err, want)
				case err == nil && got != wantAnswer[i]:
					t.Fatalf("%s, fault at read %d: no error and not the exact answer:\n got %.200s\nwant %.200s", calls[i].name, k, got, wantAnswer[i])
				}
				return err != nil
			}
			for _, short := range []bool{false, true} {
				name, want := "read error", errInjected
				if short {
					// The payload passed the store's checksum; the node decoder
					// rejects it.
					name, want = "short read", nil
				}
				t.Run(name, func(t *testing.T) {
					for i, c := range calls {
						faults := 0
						for k := int64(1); k <= scan+1; k++ {
							tr, _, done := openFaulty(t, store.path, store.mmap, k, short)
							if check(t, i, k, tr, done, want) {
								faults++
							}
						}
						if faults == 0 || int64(faults) > scan {
							t.Errorf("%s: %d of %d runs hit the fault; want some, and none once k is past a full scan", c.name, faults, scan+1)
						}
					}
				})
			}
			t.Run("bit flip", func(t *testing.T) {
				for i, c := range calls {
					tr, log, done := openFaulty(t, store.path, store.mmap, 0, false)
					if _, err := c.run(tr); err != nil {
						t.Fatal(err)
					}
					done()
					pages := slices.Compact(slices.Sorted(slices.Values(log.pages)))
					faults := 0
					for k, id := range pages {
						tr, _, done := openFaulty(t, flipPayloadByte(t, store.path, id), store.mmap, 0, false)
						if check(t, i, int64(k+1), tr, done, storage.ErrCorrupt) {
							faults++
						}
					}
					if faults == 0 {
						t.Errorf("%s: none of the %d pages it reads, flipped, gave an error", c.name, len(pages))
					}
				}
			})
		})
	}
}
