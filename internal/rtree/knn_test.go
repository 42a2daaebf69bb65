package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cbb/internal/geom"
)

// bruteForceKNN is the answer by definition: every item's Rect.MinDistSq,
// sorted by (DistSq, ObjectID), the first k.
func bruteForceKNN(items []Item, p geom.Point, k int) []Neighbor {
	out := make([]Neighbor, 0, len(items))
	for _, it := range items {
		out = append(out, Neighbor{Object: it.Object, Rect: it.Rect, DistSq: it.Rect.MinDistSq(p)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DistSq != out[j].DistSq {
			return out[i].DistSq < out[j].DistSq
		}
		return out[i].Object < out[j].Object
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// nearest is the kNN answer at tr's last committed version; a read error
// fails tb.
func nearest(tb testing.TB, tr *Tree, k int, p geom.Point) []Neighbor {
	tb.Helper()
	nn, err := tr.CurrentVersion().NearestNeighbors(k, p)
	if err != nil {
		tb.Fatal(err)
	}
	return nn
}

func TestNearestNeighborsMatchesBruteForce(t *testing.T) {
	for _, v := range AllVariants() {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			tr := MustNew(smallConfig(2, v))
			var items []Item
			for i := 0; i < 600; i++ {
				r := randRect(rng, 2, 1000, 10)
				if i%5 == 4 { // duplicates: ties at every distance
					r = items[rng.Intn(len(items))].Rect
				}
				items = append(items, Item{Object: ObjectID(i), Rect: r})
				_, _ = tr.Insert(r, ObjectID(i))
			}
			for trial := 0; trial < 30; trial++ {
				p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
				k := 1 + rng.Intn(10)
				got := nearest(t, tr, k, p)
				want := bruteForceKNN(items, p, k)
				if len(got) != len(want) {
					t.Fatalf("k=%d: got %d results, want %d", k, len(got), len(want))
				}
				for i := range got {
					// Distances match bit for bit, and ties come in id order.
					if got[i].DistSq != want[i].DistSq || got[i].Object != want[i].Object || !got[i].Rect.Equal(want[i].Rect) {
						t.Fatalf("k=%d rank %d: %+v, want %+v", k, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestNearestNeighborsEdgeCases(t *testing.T) {
	tr := MustNew(smallConfig(2, RStar))
	if nearest(t, tr, 3, geom.Pt(0, 0)) != nil {
		t.Error("empty tree should return nil")
	}
	// A diagonal of unit boxes: box i is [i, i+1]².
	items := make([]Item, 1000)
	for i := range items {
		items[i] = Item{Object: ObjectID(i), Rect: geom.R(float64(i), float64(i), float64(i+1), float64(i+1))}
		_, _ = tr.Insert(items[i].Rect, items[i].Object)
	}
	// A query that cannot be answered gets nil, never a plausible answer: a
	// NaN coordinate fails both of a distance's comparisons and would
	// contribute nothing, an infinite one makes every distance +Inf.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		k    int
		p    geom.Point
	}{
		{"k=0", 0, geom.Pt(0, 0)},
		{"k<0", -3, geom.Pt(0, 0)},
		{"no dimensions", 3, geom.Point{}},
		{"too few dimensions", 3, geom.Pt(5)},
		{"too many dimensions", 3, geom.Pt(0, 0, 0)},
		{"more dimensions than supported", 3, make(geom.Point, geom.MaxDims+1)},
		{"NaN", 3, geom.Pt(nan, 5)},
		{"NaN last", 3, geom.Pt(5, nan)},
		{"+Inf", 3, geom.Pt(inf, 5)},
		{"-Inf", 3, geom.Pt(5, -inf)},
	} {
		if got := nearest(t, tr, c.k, c.p); got != nil {
			t.Errorf("%s: NearestNeighbors(%d, %v) = %v, want nil", c.name, c.k, c.p, got)
		}
	}
	// k beyond the tree's size returns every object, in order, at a cost
	// sized by the tree.
	for _, k := range []int{len(items), len(items) + 1, math.MaxInt} {
		got, want := nearest(t, tr, k, geom.Pt(10.5, 10.5)), bruteForceKNN(items, geom.Pt(10.5, 10.5), k)
		if len(got) != len(items) || cap(got) != len(items) {
			t.Fatalf("k=%d: %d results (cap %d), want all %d", k, len(got), cap(got), len(items))
		}
		for i := range got {
			if got[i].Object != want[i].Object || got[i].DistSq != want[i].DistSq {
				t.Fatalf("k=%d rank %d: %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
	// A point inside an object has distance zero; on a shared corner, two.
	got := nearest(t, tr, 3, geom.Pt(7, 7))
	if len(got) != 3 || got[0].Object != 6 || got[0].DistSq != 0 || got[1].Object != 7 || got[1].DistSq != 0 || got[2].Object != 5 || got[2].DistSq != 2 {
		t.Errorf("at a shared corner: %+v, want objects 6, 7 at distance 0 and 5 at 2", got)
	}
}

func TestNearestNeighborsPrunesNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	tr := MustNew(smallConfig(2, RStar))
	for i := 0; i < 2000; i++ {
		_, _ = tr.Insert(randRect(rng, 2, 5000, 5), ObjectID(i))
	}
	leaves := tr.Stats().LeafNodes
	tr.Counter().Reset()
	nearest(t, tr, 5, geom.Pt(2500, 2500))
	read := tr.Counter().Snapshot().LeafReads
	if read == 0 {
		t.Fatal("kNN should read at least one leaf")
	}
	if read > int64(leaves)/4 {
		t.Errorf("best-first kNN read %d of %d leaves; pruning looks broken", read, leaves)
	}
}

func BenchmarkNearestNeighbors(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := MustNew(DefaultConfig(2, RStar))
	for i := 0; i < 20000; i++ {
		_, _ = tr.Insert(randRect(rng, 2, 10000, 10), ObjectID(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nearest(b, tr, 10, geom.Pt(rng.Float64()*10000, rng.Float64()*10000))
	}
}
