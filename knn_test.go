package cbb

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// knnByDefinition is the answer by definition: every item's Rect.MinDistSq,
// sorted by (DistSq, ObjectID), the first k.
func knnByDefinition(items []Item, p Point, k int) []Neighbor {
	out := make([]Neighbor, len(items))
	for i, it := range items {
		out[i] = Neighbor{Object: it.Object, Rect: it.Rect, DistSq: it.Rect.MinDistSq(p)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DistSq != out[j].DistSq {
			return out[i].DistSq < out[j].DistSq
		}
		return out[i].Object < out[j].Object
	})
	return out[:min(k, len(out))]
}

// tiedCorpus is corpusItems with a quarter of the rectangles exact
// duplicates of others (ties at every distance, so which of several
// equidistant objects is k-th is decided by id alone) and a quarter grown to
// contain many probes (ties at distance 0).
func tiedCorpus(d, n int, seed int64) []Item {
	items := corpusItems(d, n, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range items {
		switch i % 4 {
		case 1:
			items[i].Rect = items[rng.Intn(i)].Rect
		case 2:
			for j := 0; j < d; j++ {
				items[i].Rect.Lo[j] -= 120
				items[i].Rect.Hi[j] += 120
			}
		}
	}
	return items
}

// knnProbes are points over and around the corpus: most inside the data
// (and inside the grown rectangles), some outside the universe, where every
// node's dead corners face the query.
func knnProbes(d, n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]Point, n)
	for i := range ps {
		ps[i] = make(Point, d)
		for j := range ps[i] {
			ps[i][j] = rng.Float64()*1400 - 200
		}
	}
	return ps
}

// eachStore writes tree as a v1 and a v2 snapshot under base and calls visit
// with the tree reopened from every store the format-equivalence matrix
// opens; exact says the store holds the tree's own directory boxes (v2's are
// rounded outward).
func eachStore(t *testing.T, tree *Tree, base string, visit func(label string, exact bool, got *Tree)) {
	t.Helper()
	v1, v2 := base+"-v1.cbb", base+"-v2.cbb"
	if err := tree.WriteSnapshot(v1, SnapshotV1); err != nil {
		t.Fatal(err)
	}
	if err := tree.WriteSnapshot(v2, SnapshotV2); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		exact bool
		open  func() (*Tree, error)
	}{
		{"v1+pager", true, func() (*Tree, error) { return OpenReadOnly(v1) }},
		{"v2+pager", false, func() (*Tree, error) { return OpenReadOnly(v2) }},
		{"v2+mmap", false, func() (*Tree, error) { return OpenMmap(v2) }},
	} {
		got, err := tc.open()
		if errors.Is(err, storage.ErrMmapUnsupported) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		visit(tc.label, tc.exact, got)
		if err := got.Err(); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		got.Close()
	}
}

// TestKNNCanonicalAcrossShapes pins that a nearest-neighbour answer is a
// function of the indexed items alone: on a corpus full of duplicates and
// containments it is the definition's — ascending (DistSq, ObjectID), every
// field — for all four variants, bulk-loaded and insert-built, on one tree
// and on four shards, and from every store the format-equivalence matrix
// opens. (Before the candidate set was ordered by id, ties surfaced in heap
// order on one tree and in id order after the sharded merge.)
func TestKNNCanonicalAcrossShapes(t *testing.T) {
	const d = 2
	items := tiedCorpus(d, 900, 41)
	probes := knnProbes(d, 24, 43)
	ks := []int{1, 7, 40}
	check := func(t *testing.T, label string, r interface {
		NearestNeighbors(k int, p Point) []Neighbor
	}) {
		t.Helper()
		for i, p := range probes {
			for _, k := range ks {
				if got, want := r.NearestNeighbors(k, p), knnByDefinition(items, p, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: probe %d k=%d:\n got %v\nwant %v", label, i, k, got, want)
				}
			}
		}
	}
	universe := R(-200, -200, 1400, 1400)
	shuffled := append([]Item(nil), items...)
	rand.New(rand.NewSource(47)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	dir := t.TempDir()
	for _, v := range []Variant{QRTree, HRTree, RStarTree, RRStarTree} {
		t.Run(v.String(), func(t *testing.T) {
			opts := Options{Dims: d, Variant: v, Universe: universe}
			bulk, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := bulk.BulkLoad(items); err != nil {
				t.Fatal(err)
			}
			check(t, "bulk-loaded", bulk)

			built, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range shuffled {
				if err := built.Insert(it.Rect, it.Object); err != nil {
					t.Fatal(err)
				}
			}
			check(t, "insert-built", built)

			for _, load := range []string{"bulk-loaded", "insert-built"} {
				st, err := NewSharded(ShardedOptions{Options: opts, Shards: 4})
				if err != nil {
					t.Fatal(err)
				}
				if load == "bulk-loaded" {
					err = st.BulkLoad(items)
				} else {
					err = st.InsertItems(shuffled)
				}
				if err != nil {
					t.Fatal(err)
				}
				check(t, "4 shards, "+load, st)
				view := st.Snapshot()
				check(t, "4 shards, "+load+", pinned", view)
				view.Close()
			}

			eachStore(t, built, filepath.Join(dir, v.String()), func(label string, _ bool, got *Tree) {
				check(t, label, got)
			})
		})
	}
}

// nodesWithin counts the nodes of the tree whose entry rectangle is within
// dSq of p, the root included whatever its distance: the set a best-first
// search must read to prove a k-th distance of dSq, and — MINDIST being
// admissible — the least any search may.
func nodesWithin(t *testing.T, v *rtree.Version, p Point, dSq float64) int {
	t.Helper()
	count := 0
	var walk func(id rtree.NodeID)
	walk = func(id rtree.NodeID) {
		count++
		n, err := v.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; !n.Leaf && i < n.Len(); i++ {
			if n.Rect(i).MinDistSq(p) <= dSq {
				walk(n.Child(i))
			}
		}
	}
	walk(v.RootID())
	return count
}

// TestFormatEquivalenceMatrixKNN is the nearest-neighbour row of the matrix:
// for dims 1–3 and both clip methods, after a bulk load and again after an
// insert/delete history (clip records maintained incrementally must still be
// valid bounds), a clipped tree and its ClipNone twin give the definition's
// answer on every probe; the plain tree reads exactly the nodes within the
// k-th distance, the clipped one never more on any probe and fewer overall
// where there are corners to clip (dims ≥ 2); and every store reads what the
// in-memory tree reads or — v2's directory boxes being conservative
// supersets — a little more, with the same answer.
func TestFormatEquivalenceMatrixKNN(t *testing.T) {
	dir := t.TempDir()
	for d := 1; d <= 3; d++ {
		for _, m := range []ClipMethod{ClipStairline, ClipSkyline} {
			t.Run(fmt.Sprintf("%dd/%v", d, m), func(t *testing.T) {
				items := tiedCorpus(d, 700, 53)
				opts := Options{Dims: d, Variant: RRStarTree, Clipping: ClipNone}
				plain, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Clipping = m
				clipped, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				live := append([]Item(nil), items[:500]...)
				for _, tree := range []*Tree{plain, clipped} {
					if err := tree.BulkLoad(live); err != nil {
						t.Fatal(err)
					}
				}
				probes := knnProbes(d, 40, 59)
				reads := func(tree *Tree, k int, p Point) ([]Neighbor, int) {
					tree.ResetIOStats()
					got := tree.NearestNeighbors(k, p)
					io := tree.IOStats()
					return got, int(io.LeafReads + io.DirReads)
				}
				check := func(stage string) {
					t.Helper()
					var plainTotal, clippedTotal int
					for i, p := range probes {
						for _, k := range []int{1, 5, 33} {
							want := knnByDefinition(live, p, k)
							gotPlain, readPlain := reads(plain, k, p)
							gotClipped, readClipped := reads(clipped, k, p)
							if !reflect.DeepEqual(gotPlain, want) || !reflect.DeepEqual(gotClipped, want) {
								t.Fatalf("%s: probe %d k=%d:\n  plain %v\nclipped %v\n   want %v", stage, i, k, gotPlain, gotClipped, want)
							}
							if optimal := nodesWithin(t, plain.tree.CurrentVersion(), p, want[len(want)-1].DistSq); readPlain != optimal {
								t.Fatalf("%s: probe %d k=%d: the plain search read %d nodes, %d lie within the k-th distance", stage, i, k, readPlain, optimal)
							}
							if readClipped > readPlain {
								t.Fatalf("%s: probe %d k=%d: the clipped search read %d nodes, the plain one %d", stage, i, k, readClipped, readPlain)
							}
							plainTotal, clippedTotal = plainTotal+readPlain, clippedTotal+readClipped
						}
					}
					t.Logf("%s: %d node reads plain, %d clipped", stage, plainTotal, clippedTotal)
					if d >= 2 && clippedTotal >= plainTotal {
						t.Fatalf("%s: clipping saved no node read (%d plain, %d clipped)", stage, plainTotal, clippedTotal)
					}
				}
				check("bulk-loaded")

				// The history: delete a third of what is there, insert the rest
				// of the corpus one by one, the same on both trees.
				rng := rand.New(rand.NewSource(61))
				rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				gone := live[:len(live)/3]
				live = append(live[len(live)/3:], items[500:]...)
				for _, tree := range []*Tree{plain, clipped} {
					for _, it := range gone {
						if ok, err := tree.Delete(it.Rect, it.Object); err != nil || !ok {
							t.Fatalf("Delete(%d) = %v, %v", it.Object, ok, err)
						}
					}
					for _, it := range items[500:] {
						if err := tree.Insert(it.Rect, it.Object); err != nil {
							t.Fatal(err)
						}
					}
				}
				check("after inserts and deletes")

				// Every store: the answer is the in-memory tree's, and the lazy
				// lift reads no page the in-memory search does not read, except
				// where a v2 directory box, rounded outward, admits a node the
				// exact box would not.
				eachStore(t, clipped, filepath.Join(dir, fmt.Sprintf("knn-%d-%v", d, m)), func(label string, exact bool, got *Tree) {
					for i, p := range probes {
						want, readMem := reads(clipped, 5, p)
						answer, read := reads(got, 5, p)
						if !reflect.DeepEqual(answer, want) {
							t.Fatalf("%s: probe %d: %v, in memory %v", label, i, answer, want)
						}
						if read < readMem || exact && read != readMem {
							t.Fatalf("%s: probe %d: %d node reads, in memory %d", label, i, read, readMem)
						}
					}
				})
			})
		}
	}
}
