package cbb

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// The write kernels — the quadratic split, the subtree choice, the plane
// refresh after a slot change, the Hilbert key that orders every batch and
// routes every sharded write — may change how fast a write runs, never what it
// builds. TestWriteHistoryIdentity replays one seeded history of inserts,
// deletes, InsertItems batches, committed and rolled-back batches on bulk-loaded
// trees of every variant and on a sharded engine that splits, and holds the result to digests recorded before those kernels were rewritten:
// the v1 snapshot bytes, the clip table, the node writes, and for the engine
// the shard lengths and rebalance counts as well.

// writeHistoryGolden maps each case to its digest (see historyDigest), as the
// code before the flat write kernels produced it.
var writeHistoryGolden = map[string]string{
	"TestWriteHistoryIdentity/rea02/QR-tree":  "f85f3b2e45df12be 915ba4306e00607d 5604 12320",
	"TestWriteHistoryIdentity/rea02/HR-tree":  "ab191867b05b17c7 6abab0eb4b7f16c9 5719 12320",
	"TestWriteHistoryIdentity/rea02/R*-tree":  "23ac13e6d121aa9f 346908ad1f291009 10905 12320",
	"TestWriteHistoryIdentity/rea02/RR*-tree": "f5b3e64fb8a825ac b56630bc8ff68834 5433 12320",
	"TestWriteHistoryIdentity/rea02/sharded":  "2f80b424ffba1064 6af9174c450de932 6102 lens [1162 1250 1204 1641 1689 1368 1336 1340 1330] splits 5 merges 0",
	"TestWriteHistoryIdentity/axo03/QR-tree":  "46557ad8700382d5 a4e76282e7588cce 6262 10259",
	"TestWriteHistoryIdentity/axo03/HR-tree":  "492375725ad109de 8bcba575e8aa6a99 6235 10259",
	"TestWriteHistoryIdentity/axo03/R*-tree":  "52e54e93c071bd31 e63c4464c19dbd3e 12759 10259",
	"TestWriteHistoryIdentity/axo03/RR*-tree": "b7b8e78ea3a4e595 a57bd193675e3afd 6066 10259",
	"TestWriteHistoryIdentity/axo03/sharded":  "11fc9c38aa827d89 da8f73d7566b4526 6330 lens [1030 961 995 879 938 791 857 1343 1393 1072] splits 6 merges 0",
	"TestWriteHistoryIdentity/hot02/QR-tree":  "8823272fbd7f0761 3ae03ca67d3f81a5 5718 12320",
	"TestWriteHistoryIdentity/hot02/HR-tree":  "5c2f54822485ab42 a27d9f71d83c95a4 5683 12320",
	"TestWriteHistoryIdentity/hot02/R*-tree":  "c36851606f18fc3b 3d0da509e542d2bd 10760 12320",
	"TestWriteHistoryIdentity/hot02/RR*-tree": "0655ebc3c3abee8e 08141b1f2ed8f089 5415 12320",
	"TestWriteHistoryIdentity/hot02/sharded":  "d6dcc653eafa5c6e 2d4b70a041133400 5972 lens [1275 1229 1207 1338 1841 1801 1846 1783] splits 4 merges 0",
}

// writeHistory is one case's inputs: the bulk-loaded objects, the pool fresh
// objects are drawn from (ids after the loaded ones), and the op sequence's
// seed.
type writeHistory struct {
	items, fresh []Item
	uni          Rect
	seed         int64
}

func newWriteHistory(t *testing.T, dataset string, n int) writeHistory {
	items, uni := loadDataset(t, dataset, 3*n, 42)
	rand.New(rand.NewSource(7)).Shuffle(2*n, func(i, j int) {
		items[n+i], items[n+j] = items[n+j], items[n+i]
	})
	return writeHistory{items: items[:n], fresh: items[n:], uni: uni, seed: int64(len(dataset) + n)}
}

// historyWriter is what the replay drives: a Tree or a ShardedTree, each
// with its batch behind the same three calls.
type historyWriter interface {
	Insert(Rect, ObjectID) error
	Delete(Rect, ObjectID) (bool, error)
	InsertItems([]Item) error
}

// replay applies the seeded history to w, with begin opening a batch on the
// same engine, and returns the live objects.
func (h writeHistory) replay(t *testing.T, w historyWriter, begin func() (historyWriter, func(commit bool))) []Item {
	t.Helper()
	rng := rand.New(rand.NewSource(h.seed))
	live := append([]Item(nil), h.items...)
	next := 0
	take := func(k int) []Item {
		out := h.fresh[next : next+k]
		next += k
		return out
	}
	del := func(w historyWriter) Item {
		i := rng.Intn(len(live))
		it := live[i]
		if found, err := w.Delete(it.Rect, it.Object); err != nil || !found {
			t.Fatalf("Delete(%v): found %v, err %v", it, found, err)
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return it
	}
	for op := 0; op < 250; op++ {
		switch k := rng.Intn(100); {
		case k < 35:
			it := take(1)[0]
			if err := w.Insert(it.Rect, it.Object); err != nil {
				t.Fatal(err)
			}
			live = append(live, it)
		case k < 55:
			del(w)
		case k < 70:
			batch := take(1 + rng.Intn(200))
			if err := w.InsertItems(batch); err != nil {
				t.Fatal(err)
			}
			live = append(live, batch...)
		case k < 88:
			b, end := begin()
			batch := take(2 + rng.Intn(40))
			for _, it := range batch[:2] {
				if err := b.Insert(it.Rect, it.Object); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.InsertItems(batch[2:]); err != nil {
				t.Fatal(err)
			}
			live = append(live, batch...)
			del(b)
			end(true)
		default:
			// A rolled-back batch leaves nothing behind but the fresh ids it
			// spent.
			b, end := begin()
			saved := append([]Item(nil), live...)
			batch := take(1 + rng.Intn(20))
			if err := b.InsertItems(batch); err != nil {
				t.Fatal(err)
			}
			del(b)
			end(false)
			live = saved
		}
	}
	return live
}

func TestWriteHistoryIdentity(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("write-history replay skipped in -short mode and under -race (single writer; CI runs it without)")
	}
	check := func(t *testing.T, got string) {
		t.Helper()
		if want, ok := writeHistoryGolden[t.Name()]; !ok || got != want {
			t.Errorf("digest %s, recorded %q", got, want)
		}
	}
	for _, ds := range []struct {
		name string
		n    int
	}{{"rea02", 8000}, {"axo03", 6000}, {"hot02", 8000}} {
		h := newWriteHistory(t, ds.name, ds.n)
		for _, variant := range []Variant{QRTree, HRTree, RStarTree, RRStarTree} {
			t.Run(fmt.Sprintf("%s/%v", ds.name, variant), func(t *testing.T) {
				tr, err := New(Options{Dims: h.uni.Dims(), Universe: h.uni, Variant: variant})
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.BulkLoad(h.items); err != nil {
					t.Fatal(err)
				}
				live := h.replay(t, tr, func() (historyWriter, func(bool)) {
					b, err := tr.Begin()
					if err != nil {
						t.Fatal(err)
					}
					return b, func(commit bool) {
						if !commit {
							b.Rollback()
						} else if err := b.Commit(); err != nil {
							t.Fatal(err)
						}
					}
				})
				if err := tr.Validate(); err != nil {
					t.Fatal(err)
				}
				if tr.Len() != len(live) {
					t.Fatalf("Len %d, want %d", tr.Len(), len(live))
				}
				check(t, historyDigest(t, tr.IOStats().Writes, fmt.Sprint(tr.Len()), tr))
			})
		}
		t.Run(ds.name+"/sharded", func(t *testing.T) {
			st, err := NewSharded(ShardedOptions{
				Options:    Options{Dims: h.uni.Dims(), Universe: h.uni},
				Shards:     4,
				SplitAbove: ds.n/4 - 1,
				MergeBelow: ds.n / 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.BulkLoad(h.items); err != nil {
				t.Fatal(err)
			}
			live := h.replay(t, st, func() (historyWriter, func(bool)) {
				b, err := st.Begin()
				if err != nil {
					t.Fatal(err)
				}
				return b, func(commit bool) {
					if !commit {
						b.Rollback()
					} else if err := b.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			})
			if err := st.Validate(); err != nil {
				t.Fatal(err)
			}
			if st.Len() != len(live) {
				t.Fatalf("Len %d, want %d", st.Len(), len(live))
			}
			splits, merges := st.RebalanceStats()
			var trees []*Tree
			for _, sh := range st.dir.Load().shards {
				trees = append(trees, sh.t)
			}
			shape := fmt.Sprintf("lens %v splits %d merges %d", st.ShardLens(), splits, merges)
			check(t, historyDigest(t, st.IOStats().Writes, shape, trees...))
		})
	}
}

// historyDigest is "<snapshot SHA-256> <clip-table SHA-256> <node writes>
// <shape>", the two hashes over the trees in order and shortened to 16 hex
// digits.
func historyDigest(t *testing.T, writes int64, shape string, trees ...*Tree) string {
	t.Helper()
	snap, clips := sha256.New(), sha256.New()
	for _, tr := range trees {
		if err := tr.SaveTo(snap); err != nil {
			t.Fatal(err)
		}
		clips.Write(tr.idx.EncodeClips(tr.opts.Dims, nil))
	}
	return fmt.Sprintf("%x %x %d %s", snap.Sum(nil)[:8], clips.Sum(nil)[:8], writes, shape)
}
