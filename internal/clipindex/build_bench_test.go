package clipindex

import (
	"runtime"
	"testing"

	"cbb/internal/core"
	"cbb/internal/datasets"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// BenchmarkClipBuild times Algorithm 1 over a whole tree — the cost every
// clipped BulkLoad, every wholesale-rebuild InsertItems batch and every
// cbbserve start that builds rather than opens pays on top of the tree
// itself (the numerator of the paper's Figure 14). One op is one RebuildAll
// of a bulk-loaded 100k-object tree with the library's default node capacity
// (4 KiB pages) and the paper's k and τ; ns/object is that over the objects,
// allocs/node the heap allocations per tree node (MBB snapshot, clip-point
// slice and coordinate slab when the node gets clip points). Run it with
// -cpu 1,2: the table is independent of the worker count, the time is not.
func BenchmarkClipBuild(b *testing.B) {
	const objects = 100000
	for _, ds := range []struct{ name, dataset string }{{"dims2", "rea02"}, {"dims3", "axo03"}} {
		spec, err := datasets.Lookup(ds.dataset)
		if err != nil {
			b.Fatal(err)
		}
		rects, err := datasets.Generate(ds.dataset, objects, 1)
		if err != nil {
			b.Fatal(err)
		}
		items := make([]rtree.Item, len(rects))
		for i, r := range rects {
			items[i] = rtree.Item{Rect: r, Object: rtree.ObjectID(i)}
		}
		cfg := rtree.DefaultConfig(spec.Dims, rtree.RRStar)
		cfg.MaxEntries = rtree.MaxEntriesForPage(storage.DefaultPageSize, spec.Dims)
		cfg.MinEntries = cfg.MaxEntries * 2 / 5
		tree := rtree.MustNew(cfg)
		if err := tree.BulkLoad(items); err != nil {
			b.Fatal(err)
		}
		dir, leaf := tree.NodeCount()
		for _, method := range []core.Method{core.MethodSkyline, core.MethodStairline} {
			params := core.DefaultParams(spec.Dims)
			params.Method = method
			b.Run(ds.name+"/"+method.String(), func(b *testing.B) {
				idx, err := New(tree, params)
				if err != nil {
					b.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					idx.RebuildAll()
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				if len(idx.Table()) == 0 {
					b.Fatal("no node was clipped; benchmark is vacuous")
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/objects, "ns/object")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(dir+leaf), "allocs/node")
			})
		}
	}
}
