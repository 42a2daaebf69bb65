package cbb

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// How a file-backed tree keeps track of its pages — which page each node
// lives on, which nodes the next flush writes — may change how it is
// bookkept, never what reaches the file. TestFileBackedFlushIdentity replays
// one seeded history on a Created tree of every variant, flushing after every
// step and now and then closing and reopening the file, and holds the result
// to digests recorded before that bookkeeping moved into the node directory:
// the final page file's bytes and the page writes each flush made.

// fileFlushGolden maps each case to "<page file SHA-256> <flush writes
// SHA-256>", each shortened to 16 hex digits. The page file digests are the
// ones recorded then. The writes digests were recorded again when Create
// began to write its file whole and open it: FileStats no longer counts
// Create's own write of the superblock, so each flush before the first
// reopen counts one write fewer, and every other count is unchanged.
var fileFlushGolden = map[string]string{
	"TestFileBackedFlushIdentity/QR-tree":  "8bc18fb5e35c7c6b 8bb90eefc3692a7a",
	"TestFileBackedFlushIdentity/HR-tree":  "8c14d02643fb40a7 44dbf8dbddcb8cb1",
	"TestFileBackedFlushIdentity/R*-tree":  "321072ce0bc006de ff995c0c49ef9b62",
	"TestFileBackedFlushIdentity/RR*-tree": "b319c300a921f4e8 f0187ae5a20d6452",
}

func TestFileBackedFlushIdentity(t *testing.T) {
	items, uni := loadDataset(t, "rea02", 6000, 42)
	for _, variant := range []Variant{QRTree, HRTree, RStarTree, RRStarTree} {
		t.Run(variant.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tree.cbb")
			tr, err := Create(path, Options{Dims: uni.Dims(), Universe: uni, Variant: variant, MaxEntries: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if tr != nil {
					tr.Close()
				}
			}()
			writes := sha256.New()
			flush := func() {
				t.Helper()
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
				_, w, _ := tr.FileStats()
				fmt.Fprintln(writes, w)
			}
			live := append([]Item(nil), items[:1000]...)
			if err := tr.BulkLoad(live); err != nil {
				t.Fatal(err)
			}
			flush()
			fresh := items[1000:]
			take := func(k int) []Item {
				out := fresh[:k]
				fresh = fresh[k:]
				return out
			}
			rng := rand.New(rand.NewSource(int64(variant) + 11))
			// del deletes a random live object through d and drops it from
			// live.
			del := func(d func(Rect, ObjectID) (bool, error)) {
				i := rng.Intn(len(live))
				if found, err := d(live[i].Rect, live[i].Object); err != nil || !found {
					t.Fatalf("Delete(%v) = %v, %v; want found", live[i], found, err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for step := 0; step < 300; step++ {
				switch k := rng.Intn(100); {
				case k < 30:
					it := take(1)[0]
					if err := tr.Insert(it.Rect, it.Object); err != nil {
						t.Fatal(err)
					}
					live = append(live, it)
				case k < 50:
					for range 1 + rng.Intn(6) {
						del(tr.Delete)
					}
				case k < 62:
					batch := take(1 + rng.Intn(40))
					if err := tr.InsertItems(batch); err != nil {
						t.Fatal(err)
					}
					live = append(live, batch...)
				case k < 92:
					commit := k < 80
					b, err := tr.Begin()
					if err != nil {
						t.Fatal(err)
					}
					saved := append([]Item(nil), live...)
					batch := take(2 + rng.Intn(20))
					if err := b.Insert(batch[0].Rect, batch[0].Object); err != nil {
						t.Fatal(err)
					}
					if err := b.InsertItems(batch[1:]); err != nil {
						t.Fatal(err)
					}
					live = append(live, batch...)
					del(b.Delete)
					if !commit {
						b.Rollback()
						live = saved
					} else if err := b.Commit(); err != nil {
						t.Fatal(err)
					}
				default:
					if err := tr.Close(); err != nil {
						t.Fatal(err)
					}
					if tr, err = Open(path); err != nil {
						t.Fatal(err)
					}
				}
				flush()
			}
			if tr.Len() != len(live) {
				t.Fatalf("Len %d, want %d", tr.Len(), len(live))
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fileSum, writesSum := sha256.Sum256(file), writes.Sum(nil)
			got := fmt.Sprintf("%x %x", fileSum[:8], writesSum[:8])
			if want := fileFlushGolden[t.Name()]; got != want {
				t.Errorf("digest %s, recorded %q", got, want)
			}
		})
	}
}
