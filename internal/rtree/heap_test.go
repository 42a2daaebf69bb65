package rtree

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestHeapBytesPerEntry keeps a second copy of the rectangles from creeping
// back into the node: a bulk-loaded tree may cost at most 1.5× what one slot
// needs — 2·dims float64 coordinates, one 8-byte reference, and 2·dims 16-bit
// plane coordinates — which leaves room for directory nodes, node headers,
// and allocator size classes, but not for the coordinates twice.
func TestHeapBytesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the heap")
	}
	const n = 200000
	for _, dims := range []int{2, 3} {
		t.Run(fmt.Sprintf("dims=%d", dims), func(t *testing.T) {
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
			tr := MustNew(DefaultConfig(dims, RStar))
			if err := tr.BulkLoad(items); err != nil {
				t.Fatal(err)
			}
			perObject := (float64(heap()) - float64(before)) / n
			runtime.KeepAlive(tr)
			runtime.KeepAlive(items)
			slot := float64(16*dims + 8 + 4*dims)
			t.Logf("dims=%d: %.1f heap B/object (one slot needs %.0f B)", dims, perObject, slot)
			if perObject > 1.5*slot {
				t.Errorf("dims=%d: %.1f heap B/object exceeds 1.5 × %.0f B", dims, perObject, slot)
			}
		})
	}
}
