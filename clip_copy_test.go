package cbb

import (
	"math/rand"
	"testing"

	"cbb/internal/datasets"
)

// TestClipCopiesFollowWrites holds the clip copies that directory nodes keep
// of their children's clip points to the records through single-insert and
// delete commits on the clustered stand-ins, where many placements reach into
// a node's clipped dead space and re-clip it without rewriting its parent:
// after every commit, the rectangle just written and a sample of earlier ones
// are queried — each query's probe lies inside the dead space the old clip
// points certified — and the count must match a scan of the live objects.
func TestClipCopiesFollowWrites(t *testing.T) {
	for _, dataset := range []string{"rea02", "axo03"} {
		t.Run(dataset, func(t *testing.T) {
			rects, err := datasets.Generate(dataset, 4000, 42)
			if err != nil {
				t.Fatal(err)
			}
			uni, err := datasets.Universe(dataset)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := New(Options{Dims: uni.Dims(), Universe: uni, MaxEntries: 16, MinEntries: 6})
			if err != nil {
				t.Fatal(err)
			}
			live := make(map[ObjectID]Rect)
			var items []Item
			for i, r := range rects[:3000] {
				items = append(items, Item{Object: ObjectID(i), Rect: r})
				live[ObjectID(i)] = r
			}
			if err := tree.BulkLoad(items); err != nil {
				t.Fatal(err)
			}
			count := func(q Rect) int {
				n := 0
				for _, r := range live {
					if r.Intersects(q) {
						n++
					}
				}
				return n
			}
			rng := rand.New(rand.NewSource(5))
			written := []ObjectID{}
			for i, r := range rects[3000:] {
				id := ObjectID(3000 + i)
				if err := tree.Insert(r, id); err != nil {
					t.Fatal(err)
				}
				live[id] = r
				written = append(written, id)
				if i%7 == 6 {
					victim := ObjectID(rng.Intn(3000 + i))
					if vr, ok := live[victim]; ok {
						if found, err := tree.Delete(vr, victim); err != nil || !found {
							t.Fatalf("Delete(%d): found %v, err %v", victim, found, err)
						}
						delete(live, victim)
					}
				}
				probes := []ObjectID{id}
				for k := 0; k < 8; k++ {
					probes = append(probes, written[rng.Intn(len(written))])
				}
				for _, p := range probes {
					q, ok := live[p]
					if !ok {
						continue
					}
					if got, want := tree.Count(q), count(q); got != want {
						t.Fatalf("after writing object %d: Count(rect of %d) = %d, a scan finds %d", id, p, got, want)
					}
				}
			}
			if err := tree.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
