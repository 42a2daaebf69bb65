package cbb_test

// This file contains one benchmark per table/figure of the paper's
// evaluation, named after it. Each benchmark wraps the
// corresponding experiment from internal/experiments at a reduced scale so
// that `go test -bench=. -benchmem` regenerates the full evaluation in a few
// minutes; the cbbench command runs the same experiments at larger scales.
//
// Reported custom metrics use the paper's units: percentages for dead space
// and I/O reductions, counts for leaf accesses.

import (
	"fmt"
	"testing"

	"cbb"

	"cbb/internal/core"
	"cbb/internal/experiments"
	"cbb/internal/rtree"
)

// benchConfig is the shared reduced-scale configuration for benchmark runs.
func benchConfig(datasetNames ...string) experiments.Config {
	return experiments.Config{
		Scale:          6000,
		Queries:        60,
		Seed:           42,
		SamplesPerNode: 128,
		Datasets:       datasetNames,
	}
}

// BenchmarkFig01_NodeStats reproduces Figure 1: node overlap, dead space and
// I/O optimality of unclipped R-trees on rea02 and axo03.
func BenchmarkFig01_NodeStats(b *testing.B) {
	cfg := benchConfig("rea02", "axo03")
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig01(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var dead float64
			for _, row := range res.Rows {
				dead += row.AvgDeadSpace
			}
			b.ReportMetric(100*dead/float64(len(res.Rows)), "avg_dead_space_%")
		}
	}
}

// BenchmarkFig08_BoundingExample reproduces Figure 8: dead space of the
// eight bounding shapes on the running example's two leaf nodes.
func BenchmarkFig08_BoundingExample(b *testing.B) {
	cfg := experiments.Config{Seed: 42}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig08(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res.Leaves[0]["CBBSTA"], "csta_dead_space_%")
			b.ReportMetric(100*res.Leaves[0]["MBB"], "mbb_dead_space_%")
		}
	}
}

// BenchmarkFig09_BoundingComparison reproduces Figure 9: average dead space
// and representation cost of each bounding method over RR*-tree leaf nodes
// of the 2d datasets.
func BenchmarkFig09_BoundingComparison(b *testing.B) {
	cfg := benchConfig("par02", "rea02")
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig09(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				if row.Dataset == "rea02" && row.Method == "CBBSTA" {
					b.ReportMetric(100*row.DeadSpace, "csta_dead_space_%")
					b.ReportMetric(row.Points, "csta_points")
				}
			}
		}
	}
}

// BenchmarkFig10_DeadSpaceClipped reproduces Figure 10: dead space clipped
// away per node as k grows, for both clipping methods.
func BenchmarkFig10_DeadSpaceClipped(b *testing.B) {
	cfg := benchConfig("par02", "axo03")
	cfg.Variants = []rtree.Variant{rtree.RStar, rtree.RRStar}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var bestShare float64
			for _, row := range res.Rows {
				if row.Method == "CSTA" && row.ClippedShareOfDead > bestShare {
					bestShare = row.ClippedShareOfDead
				}
			}
			b.ReportMetric(100*bestShare, "max_clipped_share_%")
		}
	}
}

// BenchmarkFig11_RangeQueryAccesses reproduces Figure 11: leaf accesses of
// clipped R-trees relative to their unclipped counterparts across
// selectivities.
func BenchmarkFig11_RangeQueryAccesses(b *testing.B) {
	cfg := benchConfig("rea02", "axo03")
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var rel float64
			var n int
			for _, row := range res.Rows {
				if row.Method == "CSTA" {
					rel += row.Relative
					n++
				}
			}
			b.ReportMetric(100*rel/float64(n), "csta_relative_leaf_io_%")
		}
	}
}

// BenchmarkTable1_IOReduction reproduces Table I: average I/O reduction per
// variant and query profile for both clipping methods.
func BenchmarkTable1_IOReduction(b *testing.B) {
	cfg := benchConfig("rea02", "axo03", "par02")
	for i := 0; i < b.N; i++ {
		fig11, err := experiments.RunFig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		t1 := experiments.AggregateTable1(fig11)
		if i == 0 {
			for _, c := range t1.Cells {
				if c.Variant == "Total" && c.Profile == "Total" {
					b.ReportMetric(100*c.SkyReduction, "csky_total_reduction_%")
					b.ReportMetric(100*c.StaReduction, "csta_total_reduction_%")
				}
			}
		}
	}
}

// BenchmarkFig12_UpdateCost reproduces Figure 12: expected re-clips per
// insertion and their causes.
func BenchmarkFig12_UpdateCost(b *testing.B) {
	cfg := benchConfig("par02", "axo03")
	cfg.Variants = []rtree.Variant{rtree.Quadratic, rtree.RRStar}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var per float64
			for _, row := range res.Rows {
				per += row.ReclipsPerInsert
			}
			b.ReportMetric(per/float64(len(res.Rows)), "reclips_per_insert")
		}
	}
}

// BenchmarkFig13_StorageOverhead reproduces Figure 13: the storage breakdown
// of clipped RR*-trees.
func BenchmarkFig13_StorageOverhead(b *testing.B) {
	cfg := benchConfig("rea02", "axo03")
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var share float64
			for _, row := range res.Rows {
				if row.Method == "CSTA" {
					share += row.ClipShare
				}
			}
			b.ReportMetric(100*share/2, "csta_storage_overhead_%")
		}
	}
}

// BenchmarkFig14_BuildOverhead reproduces Figure 14: build time of the
// variants relative to the RR*-tree and the share spent computing CBBs.
func BenchmarkFig14_BuildOverhead(b *testing.B) {
	cfg := benchConfig("par02")
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig14(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				if row.Label == "CSTA-RR*-tree" {
					b.ReportMetric(100*row.ClipShareOfIt, "csta_clip_share_of_build_%")
				}
			}
		}
	}
}

// BenchmarkJoin_INLJ reproduces the index-nested-loop-join half of the
// spatial-join evaluation (axo03 ⋈ den03).
func BenchmarkJoin_INLJ(b *testing.B) {
	cfg := benchConfig()
	cfg.Variants = []rtree.Variant{rtree.RRStar}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunJoin(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				if row.Strategy == "INLJ" {
					b.ReportMetric(100*row.Reduction, "inlj_io_reduction_%")
				}
			}
		}
	}
}

// BenchmarkJoin_STT reproduces the synchronised-tree-traversal half of the
// spatial-join evaluation (axo03 ⋈ den03).
func BenchmarkJoin_STT(b *testing.B) {
	cfg := benchConfig()
	cfg.Variants = []rtree.Variant{rtree.RRStar}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunJoin(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				if row.Strategy == "STT" {
					b.ReportMetric(100*row.Reduction, "stt_io_reduction_%")
				}
			}
		}
	}
}

// BenchmarkFig15_Scalability reproduces Figure 15 at benchmark scale: query
// latency of clipped and unclipped HR-/RR*-trees on the synthetic datasets.
func BenchmarkFig15_Scalability(b *testing.B) {
	cfg := benchConfig()
	cfg.Queries = 40
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig15(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var clipped, unclipped float64
			for _, row := range res.Rows {
				switch row.Index {
				case "CSTA-RR*":
					clipped += float64(row.LeafIO)
				case "RR*":
					unclipped += float64(row.LeafIO)
				}
			}
			if unclipped > 0 {
				b.ReportMetric(100*clipped/unclipped, "csta_rrstar_relative_io_%")
			}
		}
	}
}

// BenchmarkAblation_ScoreApproximation quantifies the design choice of
// Figure 5 (the additive score approximation used by Algorithm 1): it
// compares the approximate and the exact clipped volume over every node of a
// clipped RR*-tree and reports the mean relative error.
func BenchmarkAblation_ScoreApproximation(b *testing.B) {
	cfg := benchConfig("axo03")
	ds, err := cfg.LoadDataset("axo03")
	if err != nil {
		b.Fatal(err)
	}
	tree, _, err := experiments.BuildTree(ds, rtree.RRStar)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, _, err := cfg.ClipTree(tree, core.MethodStairline)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if relErr, nodes := experiments.ScoreApproxError(tree, idx.Params()); nodes > 0 {
				b.ReportMetric(100*relErr, "score_approx_error_%")
			}
			b.ReportMetric(float64(idx.Table().ClipPointCount()), "clip_points")
		}
	}
}

// BenchmarkBatchSearchWorkers measures the parallel query engine: the same
// range-query batch over the uniform par02 dataset executed by 1, 2, 4, and
// 8 workers. Wall-clock scaling tracks the number of physical cores (on a
// single-core machine all worker counts perform alike); the reported leaf
// reads are identical across worker counts by construction.
func BenchmarkBatchSearchWorkers(b *testing.B) {
	cfg := benchConfig("par02")
	cfg.Scale = 20000
	cfg.Queries = 300
	ds, err := cfg.LoadDataset("par02")
	if err != nil {
		b.Fatal(err)
	}
	querySet, err := cfg.QuerySet(ds)
	if err != nil {
		b.Fatal(err)
	}
	var batch []cbb.Rect
	for _, qs := range querySet {
		batch = append(batch, qs...)
	}
	tree, err := cbb.New(cbb.Options{Dims: 2, Variant: cbb.RStarTree})
	if err != nil {
		b.Fatal(err)
	}
	items := make([]cbb.Item, len(ds.Items))
	copy(items, ds.Items)
	if err := tree.BulkLoad(items); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var leafReads int64
			for i := 0; i < b.N; i++ {
				res, err := cbb.BatchSearch(tree, batch, cbb.BatchOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				leafReads = res.IO.LeafReads
			}
			b.ReportMetric(float64(leafReads), "leaf_reads")
			b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}
