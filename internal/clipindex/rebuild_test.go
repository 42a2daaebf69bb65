package clipindex

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
)

// sliverItems returns n skinny objects (one long dimension each): plenty of
// dead space in every node, so most nodes get clip points.
func sliverItems(rng *rand.Rand, dims, n int) []rtree.Item {
	items := make([]rtree.Item, n)
	for i := range items {
		lo, hi := make(geom.Point, dims), make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			lo[d] = rng.Float64() * 1000
			side := 2.0
			if d == i%dims {
				side = 40
			}
			hi[d] = lo[d] + rng.Float64()*side
		}
		items[i] = rtree.Item{Object: rtree.ObjectID(i), Rect: geom.Rect{Lo: lo, Hi: hi}}
	}
	return items
}

// sameClipBits compares clip points by order, mask and coordinate bits. Scores
// are not compared: the index keeps none (they have done their work once the
// clip points are ordered), so Table and Clips report 0 where core.Clip
// reports the score.
func sameClipBits(a, b []core.ClipPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Mask != b[i].Mask || len(a[i].Coord) != len(b[i].Coord) {
			return false
		}
		for d := range a[i].Coord {
			if math.Float64bits(a[i].Coord[d]) != math.Float64bits(b[i].Coord[d]) {
				return false
			}
		}
	}
	return true
}

// The store a build produces is a function of the tree alone: whatever
// GOMAXPROCS gives the build loop, every node's clip points — in the writer's
// table and in the published records queries read — are bit for bit what
// core.Clip returns for that node on its own.
func TestRebuildDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, dims := range []int{2, 3} {
		for _, method := range []core.Method{core.MethodSkyline, core.MethodStairline} {
			for _, v := range rtree.AllVariants() {
				t.Run(fmt.Sprintf("dims%d/%s/%s", dims, method, v), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100*dims) + int64(v)))
					tree := rtree.MustNew(smallConfig(dims, v))
					for _, it := range sliverItems(rng, dims, 1200) {
						if _, err := tree.Insert(it.Rect, it.Object); err != nil {
							t.Fatal(err)
						}
					}
					params := core.DefaultParams(dims)
					params.Method = method
					want := make(Table)
					nodes := 0
					tree.Walk(func(info rtree.NodeInfo) {
						nodes++
						children := make([]geom.Rect, info.Len())
						for i := range children {
							children[i] = info.Rect(i)
						}
						if clips := core.Clip(info.MBB, children, params); len(clips) > 0 {
							want[info.ID] = clips
						}
					})
					if nodes < 4*reclipChunk || len(want) < nodes/2 {
						t.Fatalf("%d nodes, %d clipped: too few to exercise the build loop", nodes, len(want))
					}
					for _, procs := range []int{1, 2, 8} {
						runtime.GOMAXPROCS(procs)
						idx, err := New(tree, params)
						if err != nil {
							t.Fatal(err)
						}
						for pass := 0; pass < 2; pass++ { // New's build, then RebuildAll over a published table
							snap, table := idx.Snap(), idx.Table()
							if len(table) != len(want) {
								t.Fatalf("GOMAXPROCS=%d: %d clipped nodes, serial reference has %d", procs, len(table), len(want))
							}
							for id, clips := range want {
								if !sameClipBits(table[id], clips) {
									t.Fatalf("GOMAXPROCS=%d: node %d has %v, serial reference %v", procs, id, table[id], clips)
								}
								if !sameClipBits(snap.Clips(id), clips) {
									t.Fatalf("GOMAXPROCS=%d: node %d's published record has %v, serial reference %v", procs, id, snap.Clips(id), clips)
								}
							}
							if err := idx.Validate(); err != nil {
								t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
							}
							idx.RebuildAll()
						}
					}
				})
			}
		}
	}
}

// Whole-table rebuilds — RebuildAll and the wholesale-rebuild path of
// InsertItems, both through the parallel build loop — beside readers: a
// reader on a pinned snapshot and a reader on the index's current one each
// get the answer of one epoch, never a table of one epoch over the nodes of
// another. Objects only ever get added, in slice order, so an epoch is
// identified by its object count.
func TestRebuildBesidePinnedReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const base = 200
	sizes := []int{base, 3 * base, 9 * base, 27 * base} // every batch is twice the tree: a wholesale rebuild
	items := sliverItems(rng, 2, sizes[len(sizes)-1])
	queries := make([]geom.Rect, 24)
	for i := range queries {
		queries[i] = randRect(rng, 2, 900, 120)
	}
	want := make(map[int][]int, len(sizes)) // object count → answer per query
	for _, n := range sizes {
		counts := make([]int, len(queries))
		for qi, q := range queries {
			for _, it := range items[:n] {
				if it.Rect.Intersects(q) {
					counts[qi]++
				}
			}
		}
		want[n] = counts
	}

	tree := rtree.MustNew(smallConfig(2, rtree.RRStar))
	if err := tree.BulkLoad(items[:base]); err != nil {
		t.Fatal(err)
	}
	idx, err := New(tree, core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	stop := sync.OnceFunc(func() { close(done); readers.Wait() })
	defer stop()
	count := func(search func(geom.Rect, func(rtree.ObjectID, geom.Rect) bool), q geom.Rect) int {
		n := 0
		search(q, func(rtree.ObjectID, geom.Rect) bool { n++; return true })
		return n
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(pinned bool) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				qi := i % len(queries)
				if pinned {
					s := idx.PinSnap()
					n := s.Version().Len()
					if want[n] == nil {
						t.Errorf("pinned view of %d objects: no commit ever published that many", n)
						return
					}
					for k := 0; k < 4; k++ { // the view stays put while the writer moves on
						if got := count(s.Search, queries[qi]); got != want[n][qi] {
							t.Errorf("pinned view of %d objects: query %d found %d, want %d", n, qi, got, want[n][qi])
						}
					}
					s.Version().Unpin()
					continue
				}
				before := idx.Snap().Version().Len()
				got := count(idx.Search, queries[qi])
				after := idx.Snap().Version().Len()
				ok := false
				for _, n := range sizes {
					ok = ok || (n >= before && n <= after && got == want[n][qi])
				}
				if !ok {
					t.Errorf("query %d found %d between epochs of %d and %d objects: no epoch's answer", qi, got, before, after)
				}
			}
		}(r%2 == 0)
	}

	for i := 1; i < len(sizes); i++ {
		idx.RebuildAll()
		if err := idx.InsertItems(items[sizes[i-1]:sizes[i]]); err != nil {
			t.Fatal(err)
		}
		if !tree.LastIngest().Rebuilt {
			t.Fatalf("batch %d did not take the wholesale-rebuild path", i)
		}
		idx.RebuildAll()
	}
	stop()
	if err := idx.Validate(); err != nil {
		t.Fatal(err)
	}
}
