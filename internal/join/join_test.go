package join

import (
	"testing"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/datasets"
	"cbb/internal/rtree"
)

func buildIndexed(t testing.TB, name string, n int, seed int64, variant rtree.Variant) (*rtree.Tree, []rtree.Item) {
	t.Helper()
	objs, err := datasets.Generate(name, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := datasets.Lookup(name)
	uni, _ := datasets.Universe(name)
	cfg := rtree.Config{Dims: spec.Dims, MaxEntries: 16, MinEntries: 6, Variant: variant, Universe: uni}
	tree := rtree.MustNew(cfg)
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{Object: rtree.ObjectID(i), Rect: o}
	}
	if err := tree.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	return tree, items
}

// snapOf binds a tree to its current snapshot: with the given clip index, or
// — idx nil, the unclipped baseline — with a fresh index whose table is empty
// (K = 0).
func snapOf(t testing.TB, tree *rtree.Tree, idx *clipindex.Index) *clipindex.Snap {
	t.Helper()
	if idx == nil {
		var err error
		if idx, err = clipindex.New(tree, core.Params{Method: core.MethodStairline}); err != nil {
			t.Fatal(err)
		}
	}
	return idx.Snap()
}

// inlj and stt run the two joins over single trees, the shape every test in
// this package uses.
func inlj(t testing.TB, tree *rtree.Tree, idx *clipindex.Index, probes []rtree.Item, workers int, visit func(Pair)) Result {
	return INLJ([]*clipindex.Snap{snapOf(t, tree, idx)}, probes, workers, visit)
}

func stt(t testing.TB, left, right *rtree.Tree, leftIdx, rightIdx *clipindex.Index, workers int, visit func(Pair)) (Result, error) {
	return STT([]SidePair{{Left: snapOf(t, left, leftIdx), Right: snapOf(t, right, rightIdx)}}, workers, visit)
}

func bruteForcePairs(a, b []rtree.Item) int64 {
	var n int64
	for _, x := range a {
		for _, y := range b {
			if x.Rect.Intersects(y.Rect) {
				n++
			}
		}
	}
	return n
}

func TestINLJMatchesBruteForce(t *testing.T) {
	left, leftItems := buildIndexed(t, "axo03", 1500, 1, rtree.RStar)
	_, rightItems := buildIndexed(t, "den03", 800, 2, rtree.RStar)
	want := bruteForcePairs(leftItems, rightItems)

	plain := inlj(t, left, nil, rightItems, 1, nil)
	if plain.Pairs != want {
		t.Fatalf("unclipped INLJ found %d pairs, want %d", plain.Pairs, want)
	}

	idx, err := clipindex.New(left, core.DefaultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	clipped := inlj(t, left, idx, rightItems, 1, nil)
	if clipped.Pairs != want {
		t.Fatalf("clipped INLJ found %d pairs, want %d", clipped.Pairs, want)
	}
	if clipped.IO.LeafReads > plain.IO.LeafReads {
		t.Errorf("clipping increased INLJ leaf I/O: %d > %d", clipped.IO.LeafReads, plain.IO.LeafReads)
	}
	t.Logf("INLJ leaf reads: unclipped %d, clipped %d", plain.IO.LeafReads, clipped.IO.LeafReads)
}

func TestINLJVisitCallback(t *testing.T) {
	left, leftItems := buildIndexed(t, "par02", 500, 5, rtree.RRStar)
	probes := leftItems[:50]
	var seen int
	res := inlj(t, left, nil, probes, 1, func(Pair) { seen++ })
	if int64(seen) != res.Pairs {
		t.Errorf("visit callback saw %d pairs, result says %d", seen, res.Pairs)
	}
	if res.Pairs < int64(len(probes)) {
		t.Error("every probe should at least join with itself")
	}
}

func TestSTTMatchesBruteForce(t *testing.T) {
	for _, variant := range []rtree.Variant{rtree.Quadratic, rtree.RStar} {
		left, leftItems := buildIndexed(t, "axo03", 1200, 6, variant)
		right, rightItems := buildIndexed(t, "den03", 700, 7, variant)
		want := bruteForcePairs(leftItems, rightItems)

		plain, err := stt(t, left, right, nil, nil, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Pairs != want {
			t.Fatalf("%v: unclipped STT found %d pairs, want %d", variant, plain.Pairs, want)
		}

		leftIdx, _ := clipindex.New(left, core.DefaultParams(3))
		rightIdx, _ := clipindex.New(right, core.DefaultParams(3))
		clipped, err := stt(t, left, right, leftIdx, rightIdx, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if clipped.Pairs != want {
			t.Fatalf("%v: clipped STT found %d pairs, want %d", variant, clipped.Pairs, want)
		}
		if clipped.IO.LeafReads > plain.IO.LeafReads {
			t.Errorf("%v: clipping increased STT leaf I/O: %d > %d", variant, clipped.IO.LeafReads, plain.IO.LeafReads)
		}
		t.Logf("%v STT leaf reads: unclipped %d, clipped %d", variant, plain.IO.LeafReads, clipped.IO.LeafReads)
	}
}

func TestSTTIsCheaperThanINLJ(t *testing.T) {
	// The paper observes that STT incurs far fewer accesses than INLJ.
	left, _ := buildIndexed(t, "axo03", 2000, 8, rtree.RRStar)
	right, rightItems := buildIndexed(t, "den03", 1000, 9, rtree.RRStar)
	inlj := inlj(t, left, nil, rightItems, 1, nil)
	stt, err := stt(t, left, right, nil, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stt.Pairs != inlj.Pairs {
		t.Fatalf("join strategies disagree: %d vs %d", stt.Pairs, inlj.Pairs)
	}
	if stt.IO.Total() >= inlj.IO.Total() {
		t.Errorf("STT (%d accesses) should be cheaper than INLJ (%d)", stt.IO.Total(), inlj.IO.Total())
	}
}

func TestSTTErrors(t *testing.T) {
	left, _ := buildIndexed(t, "axo03", 200, 10, rtree.Quadratic)
	right2d, _ := buildIndexed(t, "par02", 200, 11, rtree.Quadratic)
	if _, err := stt(t, left, right2d, nil, nil, 1, nil); err == nil {
		t.Error("dimensionality mismatch must be rejected")
	}
}

func TestSTTEmptyTrees(t *testing.T) {
	empty := rtree.MustNew(rtree.DefaultConfig(3, rtree.Quadratic))
	left, _ := buildIndexed(t, "axo03", 100, 13, rtree.Quadratic)
	res, err := stt(t, left, empty, nil, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 0 {
		t.Error("join with an empty tree should produce no pairs")
	}
}

func TestSTTSharedCounter(t *testing.T) {
	left, _ := buildIndexed(t, "axo03", 600, 14, rtree.RStar)
	right, _ := buildIndexed(t, "den03", 400, 15, rtree.RStar)
	// Share one counter across both trees; IO must not be double-counted.
	right.SetCounter(left.Counter())
	res, err := stt(t, left, right, nil, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.IO.LeafReads <= 0 {
		t.Error("shared-counter join should still report I/O")
	}
}

func BenchmarkSTTJoin(b *testing.B) {
	left, _ := buildIndexed(b, "axo03", 3000, 1, rtree.RRStar)
	right, _ := buildIndexed(b, "den03", 1500, 2, rtree.RRStar)
	leftIdx, _ := clipindex.New(left, core.DefaultParams(3))
	rightIdx, _ := clipindex.New(right, core.DefaultParams(3))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = stt(b, left, right, leftIdx, rightIdx, 1, nil)
	}
}
