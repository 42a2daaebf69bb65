package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"cbb/internal/geom"
)

// orderItems builds n rectangles of the given dimensionality whose centres
// tie heavily: "grid" snaps every rectangle onto a coarse lattice (so whole
// slabs share one centre coordinate), "dup" repeats a handful of rectangles
// over and over, and "mixed" interleaves both with free-floating ones. Object
// ids are the positions, so two equal rectangles stay distinguishable.
func orderItems(rng *rand.Rand, kind string, n, dims int) []Item {
	items := make([]Item, n)
	pool := make([]geom.Rect, 7)
	for i := range pool {
		pool[i] = orderRect(rng, dims, 0)
	}
	for i := range items {
		var r geom.Rect
		switch {
		case kind == "dup" || kind == "mixed" && i%3 == 0:
			r = pool[rng.Intn(len(pool))]
		case kind == "grid" || kind == "mixed" && i%3 == 1:
			r = orderRect(rng, dims, 8)
		default:
			r = orderRect(rng, dims, 0)
		}
		items[i] = Item{Object: ObjectID(i), Rect: r}
	}
	return items
}

// orderRect draws one rectangle in [-50, 50)^dims; cells > 0 snaps both
// corners onto a lattice of that many cells a side (zero included, with
// either sign).
func orderRect(rng *rand.Rand, dims, cells int) geom.Rect {
	lo, hi := make(geom.Point, dims), make(geom.Point, dims)
	for d := range lo {
		a, b := rng.Float64()*100-50, rng.Float64()*10
		if cells > 0 {
			a = float64(rng.Intn(cells)-cells/2) * (100 / float64(cells))
			b = float64(rng.Intn(2)) * (100 / float64(cells))
			if a == 0 && rng.Intn(2) == 0 {
				a = -a // -0: equal to +0 as a key, different bits
			}
		}
		lo[d], hi[d] = a, a+b
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// checkOrderMatchesReference compares packingOrder, slot for slot, with the
// items the pre-permutation sort would have produced, and checks the caller's
// slice was left alone.
func checkOrderMatchesReference(t testing.TB, v Variant, dims, maxEntries, workers int, items []Item) {
	t.Helper()
	cfg := DefaultConfig(dims, v)
	cfg.MaxEntries, cfg.MinEntries = maxEntries, max(1, maxEntries*2/5)
	ref, got := MustNew(cfg), MustNew(cfg)
	var want []Item
	if v == Hilbert {
		want = ref.sortHilbert(items)
	} else {
		want = ref.sortSTR(items)
	}
	before := append([]Item(nil), items...)
	order := got.packingOrder(items, workers)
	if len(order) != len(want) {
		t.Fatalf("order has %d records, reference %d items", len(order), len(want))
	}
	for i, o := range order {
		if it := items[o.orig]; it.Object != want[i].Object || !it.Rect.Equal(want[i].Rect) {
			t.Fatalf("slot %d: object %d %v, reference object %d %v", i, it.Object, it.Rect, want[i].Object, want[i].Rect)
		}
	}
	for i := range items {
		if items[i].Object != before[i].Object || !items[i].Rect.Equal(before[i].Rect) {
			t.Fatalf("packingOrder moved or changed the caller's item %d", i)
		}
	}
}

// TestBulkOrderMatchesReference pins the permutation build's order to the
// sort it replaced over every variant, dimensionality, the sizes around the
// node capacity, and data whose centres tie.
func TestBulkOrderMatchesReference(t *testing.T) {
	const m = 50
	for _, v := range AllVariants() {
		for dims := 1; dims <= 3; dims++ {
			for _, n := range []int{0, 1, m, m + 1, 10*m + 3, 50000} {
				for _, kind := range []string{"grid", "dup", "mixed"} {
					if n == 50000 && (testing.Short() || kind == "dup") {
						continue
					}
					t.Run(fmt.Sprintf("%v/%dd/n=%d/%s", v, dims, n, kind), func(t *testing.T) {
						items := orderItems(rand.New(rand.NewSource(int64(n+dims))), kind, n, dims)
						for _, workers := range []int{1, 2, 3, 8} {
							checkOrderMatchesReference(t, v, dims, m, workers, items)
						}
					})
				}
			}
		}
	}
}

// FuzzBulkOrder drives the same comparison from fuzzed sizes, capacities,
// worker counts and lattice-aligned coordinates.
func FuzzBulkOrder(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(8), uint8(2), uint16(503), int64(1))
	f.Add(uint8(1), uint8(3), uint8(4), uint8(3), uint16(77), int64(2))
	f.Add(uint8(2), uint8(1), uint8(50), uint8(1), uint16(0), int64(3))
	f.Add(uint8(3), uint8(3), uint8(5), uint8(8), uint16(1200), int64(4))
	f.Fuzz(func(t *testing.T, variant, dims, maxEntries, workers uint8, n uint16, seed int64) {
		v := AllVariants()[int(variant)%len(AllVariants())]
		kind := []string{"grid", "dup", "mixed"}[int(seed&3)%3]
		items := orderItems(rand.New(rand.NewSource(seed)), kind, int(n)%3000, 1+int(dims)%3)
		checkOrderMatchesReference(t, v, 1+int(dims)%3, 4+int(maxEntries)%60, 1+int(workers)%8, items)
	})
}
