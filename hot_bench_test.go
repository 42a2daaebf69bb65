package cbb

// Microbenchmarks of the query hot path. Unlike the figure benchmarks in
// bench_test.go (which run whole experiments), these isolate the per-query
// CPU cost of the read path — the quantity the paper argues is negligible
// next to the I/O savings of clipping. They are tracked by BENCH_baseline.json
// and run as a CI smoke test; see the README's "Performance" section.

import (
	"fmt"
	"math/rand"
	"testing"

	"cbb/internal/querygen"
)

// hotPathTree builds an in-memory bulk-loaded RR*-tree over n uniformly
// distributed rectangles in [0,1)^dims together with a deterministic query
// set of roughly 0.1%-selectivity windows.
func hotPathTree(b *testing.B, n, dims int, clipping ClipMethod) (*Tree, []Rect) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	items := make([]Item, n)
	for i := range items {
		lo := make(Point, dims)
		hi := make(Point, dims)
		for d := 0; d < dims; d++ {
			lo[d] = rng.Float64()
			hi[d] = lo[d] + 0.001*rng.Float64()
		}
		items[i] = Item{Object: ObjectID(i), Rect: Rect{Lo: lo, Hi: hi}}
	}
	tree, err := New(Options{Dims: dims, Variant: RRStarTree, Clipping: clipping})
	if err != nil {
		b.Fatal(err)
	}
	if err := tree.BulkLoad(items); err != nil {
		b.Fatal(err)
	}
	side := 0.1 // ~0.1% selectivity in 2d
	queries := make([]Rect, 256)
	for i := range queries {
		lo := make(Point, dims)
		hi := make(Point, dims)
		for d := 0; d < dims; d++ {
			lo[d] = rng.Float64() * (1 - side)
			hi[d] = lo[d] + side
		}
		queries[i] = Rect{Lo: lo, Hi: hi}
	}
	return tree, queries
}

// hotDatasetTree bulk-loads n objects of a synthetic stand-in for one of the
// paper's data sets (4 KiB pages, as the repository benchmark does) and draws
// the benchmark's query mix for it: QR0/QR1/QR2 windows in rotation, about 1,
// 10 and 100 results each.
func hotDatasetTree(b *testing.B, dataset string, n int, clipping ClipMethod) (*Tree, []Rect) {
	b.Helper()
	items, uni := loadDataset(b, dataset, n, 42)
	tree, err := New(Options{Dims: uni.Dims(), Variant: RRStarTree, Universe: uni, Clipping: clipping})
	if err != nil {
		b.Fatal(err)
	}
	if err := tree.BulkLoad(items); err != nil {
		b.Fatal(err)
	}
	rects := make([]Rect, len(items))
	for i := range items {
		rects[i] = items[i].Rect
	}
	gen, err := querygen.New(rects, uni, 2)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]Rect, 1024)
	for i := range queries {
		queries[i] = gen.Query(querygen.AllProfiles()[i%3])
	}
	return tree, queries
}

// BenchmarkSearchHot measures one in-memory range query per iteration,
// cycling through a fixed query set, with clipping enabled (CSTA) and
// disabled, so the CPU clipping costs or saves is one benchstat away: on
// uniform boxes, where clip points have next to nothing to prune, and on the
// rea02 (2-D) and axo03 (3-D) stand-ins, where they save a fifth to a half of
// the leaf reads. Steady-state searches perform zero heap allocations; see
// TestSearchZeroAllocs.
func BenchmarkSearchHot(b *testing.B) {
	run := func(name string, build func(cm ClipMethod) (*Tree, []Rect)) {
		for _, cm := range []ClipMethod{ClipNone, ClipStairline} {
			b.Run(fmt.Sprintf("%s/clip=%s", name, cm), func(b *testing.B) {
				tree, queries := build(cm)
				hits := 0
				visit := func(ObjectID, Rect) bool { hits++; return true }
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tree.Search(queries[i%len(queries)], visit)
				}
				b.StopTimer()
				if hits == 0 {
					b.Fatal("queries matched nothing; benchmark is vacuous")
				}
				io := tree.IOStats()
				b.ReportMetric(float64(io.LeafReads)/float64(b.N), "leaf_reads/op")
			})
		}
	}
	for _, dims := range []int{2, 3} {
		run(fmt.Sprintf("dims=%d", dims), func(cm ClipMethod) (*Tree, []Rect) { return hotPathTree(b, 50000, dims, cm) })
	}
	for _, dataset := range []string{"rea02", "axo03"} {
		run(dataset, func(cm ClipMethod) (*Tree, []Rect) { return hotDatasetTree(b, dataset, 100000, cm) })
	}
}

// BenchmarkKNN measures one in-memory k-nearest-neighbour query per
// iteration at the centres of BenchmarkSearchHot's query windows, on the
// rea02 and axo03 stand-ins, with clipping enabled (CSTA) and disabled: the
// clipped twin reads fewer nodes because a point facing a dead corner is
// farther from a node's live space than from its MBB. Each row reports the
// leaf and directory reads per query; the result slice is the one allocation.
func BenchmarkKNN(b *testing.B) {
	for _, dataset := range []string{"rea02", "axo03"} {
		for _, cm := range []ClipMethod{ClipNone, ClipStairline} {
			tree, queries := hotDatasetTree(b, dataset, 100000, cm)
			points := make([]Point, len(queries))
			for i, q := range queries {
				points[i] = q.Center()
			}
			for _, k := range []int{1, 10, 100} {
				b.Run(fmt.Sprintf("%s/clip=%s/k=%d", dataset, cm, k), func(b *testing.B) {
					tree.ResetIOStats()
					b.ReportAllocs()
					b.ResetTimer()
					total := 0
					for i := 0; i < b.N; i++ {
						total += len(tree.NearestNeighbors(k, points[i%len(points)]))
					}
					b.StopTimer()
					if total != k*b.N {
						b.Fatalf("%d neighbours over %d queries, want %d each", total, b.N, k)
					}
					io := tree.IOStats()
					b.ReportMetric(float64(io.LeafReads)/float64(b.N), "leaf_reads/op")
					b.ReportMetric(float64(io.DirReads)/float64(b.N), "dir_reads/op")
				})
			}
		}
	}
}

// BenchmarkBulkLoad measures one BulkLoad of an empty tree per iteration —
// the build every workload's set-up, cbbserve's boot and a shard split pay —
// over the repository benchmark's two big inputs, plain (the packing alone)
// and clipped (packing plus the clip-table build). Ordering and packing fan
// out over GOMAXPROCS, so run it with -cpu 1,2; the trees are the same bytes
// either way (TestBulkLoadDeterministicAcrossProcs).
func BenchmarkBulkLoad(b *testing.B) {
	for _, in := range []struct {
		dataset string
		n       int
	}{{"rea02", 500000}, {"axo03", 300000}} {
		items, uni := loadDataset(b, in.dataset, in.n, 42)
		for _, cm := range []ClipMethod{ClipNone, ClipStairline} {
			b.Run(fmt.Sprintf("%s/clip=%s", in.dataset, cm), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tree, err := New(Options{Dims: uni.Dims(), Universe: uni, Clipping: cm})
					if err != nil {
						b.Fatal(err)
					}
					if err := tree.BulkLoad(items); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(items)), "ns/object")
			})
		}
	}
}
