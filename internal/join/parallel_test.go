package join

import (
	"sort"
	"sync"
	"testing"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/rtree"
)

// sortedPairs collects join output through a callback safe for any worker
// count and returns it in canonical order.
func sortedPairs(run func(visit func(Pair)) (Result, error), t *testing.T) ([]Pair, Result) {
	t.Helper()
	var mu sync.Mutex
	var pairs []Pair
	res, err := run(func(p Pair) {
		mu.Lock()
		pairs = append(pairs, p)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(pairs, func(i, k int) bool {
		if pairs[i].Left != pairs[k].Left {
			return pairs[i].Left < pairs[k].Left
		}
		return pairs[i].Right < pairs[k].Right
	})
	return pairs, res
}

func TestPINLJMatchesSequential(t *testing.T) {
	left, _ := buildIndexed(t, "axo03", 1500, 21, rtree.RStar)
	_, probes := buildIndexed(t, "den03", 800, 22, rtree.RStar)
	idx, err := clipindex.New(left, core.DefaultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	// Clipped first: the plain baseline clips the tree with K = 0, which
	// replaces idx's records in the tree idx.Snap reads.
	for _, clip := range []*clipindex.Index{idx, nil} {
		seqPairs, seq := sortedPairs(func(v func(Pair)) (Result, error) {
			return inlj(t, left, clip, probes, 1, v), nil
		}, t)
		for _, workers := range []int{2, 4, 8} {
			parPairs, par := sortedPairs(func(v func(Pair)) (Result, error) {
				return inlj(t, left, clip, probes, workers, v), nil
			}, t)
			if par.Pairs != seq.Pairs {
				t.Fatalf("workers=%d clip=%v: %d pairs, sequential %d", workers, clip != nil, par.Pairs, seq.Pairs)
			}
			if par.IO != seq.IO {
				t.Fatalf("workers=%d clip=%v: IO %+v, sequential %+v", workers, clip != nil, par.IO, seq.IO)
			}
			if len(parPairs) != len(seqPairs) {
				t.Fatalf("workers=%d: emitted %d pairs, sequential %d", workers, len(parPairs), len(seqPairs))
			}
			for i := range parPairs {
				if parPairs[i] != seqPairs[i] {
					t.Fatalf("workers=%d: pair %d is %v, sequential %v", workers, i, parPairs[i], seqPairs[i])
				}
			}
		}
	}
}

func TestPSTTMatchesSequential(t *testing.T) {
	left, _ := buildIndexed(t, "axo03", 1200, 23, rtree.RRStar)
	right, _ := buildIndexed(t, "den03", 700, 24, rtree.RRStar)
	leftIdx, _ := clipindex.New(left, core.DefaultParams(3))
	rightIdx, _ := clipindex.New(right, core.DefaultParams(3))

	type cfg struct {
		name   string
		li, ri *clipindex.Index
	}
	for _, c := range []cfg{{"clipped", leftIdx, rightIdx}, {"plain", nil, nil}} { // clipped first, as above
		seqPairs, seq := sortedPairs(func(v func(Pair)) (Result, error) {
			return stt(t, left, right, c.li, c.ri, 1, v)
		}, t)
		for _, workers := range []int{2, 4, 8} {
			parPairs, par := sortedPairs(func(v func(Pair)) (Result, error) {
				return stt(t, left, right, c.li, c.ri, workers, v)
			}, t)
			if par.Pairs != seq.Pairs {
				t.Fatalf("%s workers=%d: %d pairs, sequential %d", c.name, workers, par.Pairs, seq.Pairs)
			}
			if par.IO != seq.IO {
				t.Fatalf("%s workers=%d: IO %+v, sequential %+v", c.name, workers, par.IO, seq.IO)
			}
			for i := range parPairs {
				if parPairs[i] != seqPairs[i] {
					t.Fatalf("%s workers=%d: pair %d is %v, sequential %v", c.name, workers, i, parPairs[i], seqPairs[i])
				}
			}
		}
	}
}

func TestPSTTSharedCounter(t *testing.T) {
	left, _ := buildIndexed(t, "axo03", 600, 25, rtree.RStar)
	right, _ := buildIndexed(t, "den03", 400, 26, rtree.RStar)
	right.SetCounter(left.Counter())
	seq, err := stt(t, left, right, nil, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := stt(t, left, right, nil, nil, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if par.Pairs != seq.Pairs || par.IO != seq.IO {
		t.Fatalf("shared counter: parallel %+v, sequential %+v", par, seq)
	}
}

func TestParallelJoinAccumulatesTreeCounters(t *testing.T) {
	left, _ := buildIndexed(t, "axo03", 800, 27, rtree.RStar)
	_, probes := buildIndexed(t, "den03", 500, 28, rtree.RStar)
	left.Counter().Reset()
	res := inlj(t, left, nil, probes, 4, nil)
	if got := left.Counter().Snapshot(); got != res.IO {
		t.Fatalf("tree counter %+v after join, result IO %+v", got, res.IO)
	}
}

func TestPSTTSmallTreesFallBack(t *testing.T) {
	// Trees whose root is a leaf take the sequential path; results must
	// still be exact.
	left, leftItems := buildIndexed(t, "axo03", 10, 29, rtree.Quadratic)
	right, rightItems := buildIndexed(t, "den03", 8, 30, rtree.Quadratic)
	want := bruteForcePairs(leftItems, rightItems)
	res, err := stt(t, left, right, nil, nil, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != want {
		t.Fatalf("small-tree PSTT found %d pairs, want %d", res.Pairs, want)
	}
}
