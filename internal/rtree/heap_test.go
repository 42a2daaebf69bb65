package rtree

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestHeapBytesPerEntry keeps a second copy of the rectangles from creeping
// back into the node: a tree may cost at most 1.5× what one slot needs —
// 2·dims float64 coordinates, one 8-byte reference, and 2·dims 8-bit leaf
// plane coordinates — which leaves room for directory nodes, node headers,
// and allocator size classes, but not for the coordinates twice. Under 1.3×
// it also keeps the leaves' planes at 8 bits: with 16-bit leaf planes every
// case measured 1.31–1.37× (58.2 and 60.3 B in 2-D, 81.2 and 82.8 B in 3-D),
// with 8-bit ones 1.22–1.28×. It holds a bulk-loaded tree, and a written
// one: bulk loaded, then taking scattered batches of single inserts that
// clone most leaves, which must not keep spare capacity in the nodes they
// publish.
func TestHeapBytesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the heap")
	}
	const n, batches, perBatch = 200000, 200, 64
	for _, dims := range []int{2, 3} {
		t.Run(fmt.Sprintf("dims=%d", dims), func(t *testing.T) {
			for _, written := range []bool{false, true} {
				name := map[bool]string{false: "bulk", true: "written"}[written]
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(dims)))
					items := make([]Item, n)
					for i := range items {
						items[i] = Item{Object: ObjectID(i), Rect: randRect(rng, dims, 1000, 2)}
					}
					heap := func() uint64 {
						runtime.GC()
						var m runtime.MemStats
						runtime.ReadMemStats(&m)
						return m.HeapAlloc
					}
					before := heap()
					v := RStar
					if written {
						v = Quadratic // its subtree choice is linear, the R* one quadratic in M
					}
					tr := MustNew(DefaultConfig(dims, v))
					if err := tr.BulkLoad(items); err != nil {
						t.Fatal(err)
					}
					for b := 0; written && b < batches; b++ {
						if err := tr.BeginBatch(); err != nil {
							t.Fatal(err)
						}
						for i := 0; i < perBatch; i++ {
							if _, err := tr.Insert(randRect(rng, dims, 1000, 2), ObjectID(n+b*perBatch+i)); err != nil {
								t.Fatal(err)
							}
						}
						tr.CommitBatch()
					}
					perObject := (float64(heap()) - float64(before)) / float64(tr.Len())
					runtime.KeepAlive(tr)
					runtime.KeepAlive(items)
					slot := float64(16*dims + 8 + 2*dims)
					t.Logf("dims=%d %s: %.1f heap B/object (one slot needs %.0f B)", dims, name, perObject, slot)
					if perObject > 1.5*slot {
						t.Errorf("dims=%d %s: %.1f heap B/object exceeds 1.5 × %.0f B", dims, name, perObject, slot)
					}
					if perObject > 1.3*slot {
						t.Errorf("dims=%d %s: %.1f heap B/object exceeds 1.3 × %.0f B: are the leaf planes wider than %d bits?",
							dims, name, perObject, slot, LeafPlaneBits)
					}
				})
			}
		})
	}
}
