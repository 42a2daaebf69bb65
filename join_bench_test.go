package cbb

import (
	"fmt"
	"testing"
)

// joinBenchInputs are the two joins the microbenchmarks time: the one inside
// the repository benchmark's mem-query workload (rea02 ⋈ par02, built with
// the same options and seeds as bench/ builds them) and the 3-D pair of the
// paper's Figure 15.
var joinBenchInputs = []struct {
	left, right string
	nl, nr      int
}{
	{"rea02", "par02", 500000, 20000},
	{"axo03", "den03", 100000, 20000},
}

// benchJoins runs one sub-benchmark per input pair and clipping method: both
// trees are bulk-loaded outside the timer, run performs one whole join, and
// every row reports the pairs found and the leaf reads charged per join.
func benchJoins(b *testing.B, run func(left, right *Tree, probes []Item) (JoinResult, error)) {
	for _, in := range joinBenchInputs {
		for _, cm := range []ClipMethod{ClipNone, ClipStairline} {
			b.Run(fmt.Sprintf("%s-%s/clip=%s", in.left, in.right, cm), func(b *testing.B) {
				build := func(dataset string, n int, seed int64) (*Tree, []Item) {
					items, uni := loadDataset(b, dataset, n, seed)
					tree, err := New(Options{Dims: uni.Dims(), Universe: uni, Clipping: cm})
					if err != nil {
						b.Fatal(err)
					}
					if err := tree.BulkLoad(items); err != nil {
						b.Fatal(err)
					}
					return tree, items
				}
				left, _ := build(in.left, in.nl, 42)
				right, probes := build(in.right, in.nr, 43)
				b.ReportAllocs()
				b.ResetTimer()
				var res JoinResult
				for i := 0; i < b.N; i++ {
					var err error
					if res, err = run(left, right, probes); err != nil || res.Pairs == 0 {
						b.Fatalf("join: %d pairs, err %v", res.Pairs, err)
					}
				}
				b.ReportMetric(float64(res.Pairs), "pairs/op")
				b.ReportMetric(float64(res.IO.LeafReads), "leaf_reads/op")
			})
		}
	}
}

// BenchmarkJoinSTT measures one sequential synchronised-traversal join of two
// indexed inputs per iteration.
func BenchmarkJoinSTT(b *testing.B) {
	benchJoins(b, func(left, right *Tree, _ []Item) (JoinResult, error) {
		return Join(left, right, JoinOptions{Workers: 1}, nil)
	})
}

// BenchmarkJoinINLJ measures the index-nested-loop join of the same inputs:
// one range query on the left tree per object of the right input.
func BenchmarkJoinINLJ(b *testing.B) {
	benchJoins(b, func(left, _ *Tree, probes []Item) (JoinResult, error) {
		return JoinItems(left, probes, JoinOptions{Workers: 1}, nil)
	})
}
