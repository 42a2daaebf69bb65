package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"cbb/internal/datasets"
	"cbb/internal/storage"
)

// The flat quadratic split and subtree choice against the slot-by-slot code
// they replaced (split_reference_test.go): the same groups in the same order,
// the same child, on real node sets and on fuzzed ones full of ties,
// zero-volume rectangles and volumes that overflow.

// splitCapacities are the node capacities the checks run at: the smallest
// legal one, small test trees', the evaluation harness's, an odd one, and a
// 2-D 4 KiB page's.
var splitCapacities = []int{4, 8, 50, 73, 102}

// splitSet draws maxEntries+1 entries in dims dimensions, object ids their
// positions. mode 0 is free-floating boxes, 1 snaps them onto a coarse lattice
// (ties in every comparison), 2 flattens each to a point or a segment (zero
// volume), and 3 is mode 0 with one entry spanning ±1e308 on axis 0, whose
// volume and every enlargement of a group holding it overflow.
func splitSet(rng *rand.Rand, mode, dims, maxEntries int) []Entry {
	cells := 0
	if mode == 1 {
		cells = 8
	}
	es := make([]Entry, maxEntries+1)
	for i := range es {
		r := orderRect(rng, dims, cells)
		if mode == 2 {
			for d := range r.Hi {
				if rng.Intn(2) == 0 || d == 0 {
					r.Hi[d] = r.Lo[d]
				}
			}
		}
		es[i] = Entry{Rect: r, Child: InvalidNode, Object: ObjectID(i)}
	}
	if mode == 3 {
		huge := es[rng.Intn(len(es))].Rect
		huge.Lo[0], huge.Hi[0] = -1e308, 1e308
	}
	return es
}

// splitTree is a quadratic tree of the given shape, for its split methods.
func splitTree(dims, maxEntries, minEntries int) *Tree {
	return MustNew(Config{Dims: dims, MaxEntries: maxEntries, MinEntries: minEntries, Variant: Quadratic})
}

// checkSplitMatchesReference splits es with both kernels and compares the
// groups entry for entry. Where the reference panics (a round with no
// comparable enlargement difference) the production split must still return
// a partition of es honouring the minimum fill.
func checkSplitMatchesReference(t testing.TB, tr *Tree, es []Entry) {
	t.Helper()
	gotA, gotB := tr.splitQuadratic(es)
	var wantA, wantB []Entry
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		wantA, wantB = tr.splitQuadraticReference(es)
		return false
	}()
	if panicked {
		seen := make([]bool, len(es))
		for _, g := range [][]Entry{gotA, gotB} {
			if len(g) < tr.cfg.MinEntries {
				t.Fatalf("split of %d left a group of %d under the minimum fill %d", len(es), len(g), tr.cfg.MinEntries)
			}
			for _, e := range g {
				if seen[e.Object] {
					t.Fatalf("entry %d placed twice", e.Object)
				}
				seen[e.Object] = true
			}
		}
		if len(gotA)+len(gotB) != len(es) {
			t.Fatalf("split of %d entries returned %d", len(es), len(gotA)+len(gotB))
		}
		return
	}
	ids := func(g []Entry) string {
		out := make([]ObjectID, len(g))
		for i, e := range g {
			out[i] = e.Object
		}
		return fmt.Sprint(out)
	}
	if ids(gotA) != ids(wantA) || ids(gotB) != ids(wantB) {
		t.Fatalf("dims=%d M=%d m=%d: groups\n%s | %s\nreference\n%s | %s", tr.cfg.Dims, tr.cfg.MaxEntries, tr.cfg.MinEntries,
			ids(gotA), ids(gotB), ids(wantA), ids(wantB))
	}
	for i, e := range gotA {
		if !e.Rect.Equal(wantA[i].Rect) {
			t.Fatalf("group A slot %d holds %v, reference %v", i, e.Rect, wantA[i].Rect)
		}
	}
}

func TestSplitQuadraticMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for dims := 1; dims <= 4; dims++ {
		for _, maxEntries := range splitCapacities {
			for _, minEntries := range []int{1, maxEntries * 2 / 5, maxEntries / 2} {
				tr := splitTree(dims, maxEntries, max(1, minEntries))
				for mode := 0; mode < 4; mode++ {
					for trial := 0; trial < 6; trial++ {
						checkSplitMatchesReference(t, tr, splitSet(rng, mode, dims, maxEntries))
					}
				}
			}
		}
	}
	// Real node sets: every full leaf of a packed rea02 tree plus one more
	// object, as the first inserts after a bulk load split them.
	tr, sets := rea02SplitSets(t, 200)
	for _, es := range sets {
		checkSplitMatchesReference(t, tr, es)
	}
}

// rea02SplitSets packs count full 2-D leaves of rea02 on 4 KiB pages and
// returns each leaf's entries plus one object from outside the tree — the
// M+1 entries of a leaf split — with a tree of that shape.
func rea02SplitSets(t testing.TB, count int) (*Tree, [][]Entry) {
	maxEntries := MaxEntriesForPage(storage.DefaultPageSize, 2)
	rects, err := datasets.Generate("rea02", count*(maxEntries+1), 42)
	if err != nil {
		t.Fatal(err)
	}
	tr := splitTree(2, maxEntries, maxEntries*2/5)
	items := make([]Item, count*maxEntries)
	for i := range items {
		items[i] = Item{Object: ObjectID(i), Rect: rects[i]}
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	var sets [][]Entry
	tr.Walk(func(info NodeInfo) {
		if info.Leaf {
			es := make([]Entry, 0, info.Len()+1)
			for i := 0; i < info.Len(); i++ {
				es = append(es, Entry{Rect: info.Rect(i), Child: InvalidNode, Object: info.Object(i)})
			}
			extra := len(items) + len(sets)
			sets = append(sets, append(es, Entry{Rect: rects[extra], Child: InvalidNode, Object: ObjectID(extra)}))
		}
	})
	if len(sets) != count {
		t.Fatalf("%d leaves, want %d", len(sets), count)
	}
	return tr, sets
}

func FuzzSplitQuadraticMatchesReference(f *testing.F) {
	for mode := uint8(0); mode < 4; mode++ {
		f.Add(int64(mode), uint8(2), uint8(4), uint8(40), mode)
		f.Add(int64(mode)+10, uint8(3), uint8(2), uint8(50), mode)
	}
	f.Add(int64(99), uint8(1), uint8(0), uint8(50), uint8(3))
	f.Add(int64(7), uint8(4), uint8(3), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, dims, capacity, fill, mode uint8) {
		d := 1 + int(dims)%4
		maxEntries := splitCapacities[int(capacity)%len(splitCapacities)]
		minEntries := max(1, maxEntries*int(fill%51)/100)
		tr := splitTree(d, maxEntries, minEntries)
		checkSplitMatchesReference(t, tr, splitSet(rand.New(rand.NewSource(seed)), int(mode)%4, d, maxEntries))
	})
}

func TestChooseMinEnlargementChildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for dims := 1; dims <= 4; dims++ {
		tr := splitTree(dims, 102, 40)
		for mode := 0; mode < 4; mode++ {
			for trial := 0; trial < 50; trial++ {
				es := splitSet(rng, mode, dims, 1+rng.Intn(102))
				n := &node{}
				for _, e := range es {
					n.appendEntry(Entry{Rect: e.Rect, Child: NodeID(e.Object)})
				}
				for q := 0; q < 20; q++ {
					r := splitSet(rng, mode, dims, 0)[0].Rect
					if got, want := tr.chooseMinEnlargementChild(n, r), tr.chooseMinEnlargementChildReference(n, r); got != want {
						t.Fatalf("dims=%d mode=%d: child %d for %v, reference %d", dims, mode, got, r, want)
					}
				}
			}
		}
	}
}

// BenchmarkSplitQuadratic times one quadratic split of a full 2-D leaf on a
// 4 KiB page plus one entry (M+1 = 103 rea02 rectangles), 200 node sets in
// rotation.
func BenchmarkSplitQuadratic(b *testing.B) {
	tr, sets := rea02SplitSets(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.splitQuadratic(sets[i%len(sets)])
	}
}
