package clipindex

import (
	"math/rand"
	"testing"

	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
)

// BenchmarkClipAdmission isolates the Algorithm-2 admission test that the
// clipped search path runs once per candidate child, on the records the
// search reads: load the child's flat record and, if it has one, decide
// whether the query misses the child MBB or its overlap is entirely certified
// dead space. One iteration lays the query out once and admits every child of
// a fixed candidate set, so ns/op tracks the per-batch admission cost.
func BenchmarkClipAdmission(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	tree, _ := buildClusteredTree(b, rng, rtree.RRStar, 6000)
	idx, err := New(tree, core.Params{K: 8, Tau: 0.01, Method: core.MethodStairline})
	if err != nil {
		b.Fatal(err)
	}
	type cand struct {
		id  rtree.NodeID
		mbb geom.Rect
	}
	var cands []cand
	tree.Walk(func(info rtree.NodeInfo) {
		if !info.Leaf {
			for i := 0; i < info.Len(); i++ {
				cands = append(cands, cand{id: info.Child(i), mbb: info.Rect(i)})
			}
		}
	})
	queries := make([]geom.Rect, 64)
	for i := range queries {
		queries[i] = randRect(rng, 2, 950, 50)
	}
	admitted := 0
	snap := idx.Snap()
	var sel core.Sel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		sel.Query(q)
		for _, c := range cands {
			if rec := snap.Record(c.id); len(rec) == 0 || c.mbb.Intersects(q) && !rec.Dead(2, &sel) {
				admitted++
			}
		}
	}
	b.StopTimer()
	if admitted == 0 {
		b.Fatal("no candidate admitted; benchmark is vacuous")
	}
	b.ReportMetric(float64(len(cands)), "children/op")
}
