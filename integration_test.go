package cbb

// Integration tests: exercise the whole stack (dataset generation → index
// construction → clipping → queries → updates → joins → persistence-level
// statistics) through the public API plus the internal experiment datasets,
// asserting the cross-cutting invariants that individual package tests
// cannot see.

import (
	"bytes"
	"math/rand"
	"testing"

	"cbb/internal/datasets"
)

// loadDataset converts a synthetic dataset into public API items.
func loadDataset(t testing.TB, name string, n int, seed int64) ([]Item, Rect) {
	t.Helper()
	objs, err := datasets.Generate(name, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := datasets.Universe(name)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, len(objs))
	for i, o := range objs {
		items[i] = Item{Object: ObjectID(i), Rect: o}
	}
	return items, uni
}

func TestIntegrationFullLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	items, uni := loadDataset(t, "axo03", 6000, 99)
	build, insertLater := items[:5000], items[5000:]

	for _, variant := range []Variant{QRTree, HRTree, RStarTree, RRStarTree} {
		t.Run(variant.String(), func(t *testing.T) {
			clipped, err := New(Options{Dims: 3, Variant: variant, Universe: uni})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := New(Options{Dims: 3, Variant: variant, Universe: uni, Clipping: ClipNone})
			if err != nil {
				t.Fatal(err)
			}
			if err := clipped.BulkLoad(build); err != nil {
				t.Fatal(err)
			}
			if err := plain.BulkLoad(build); err != nil {
				t.Fatal(err)
			}

			// Phase 1: queries agree and clipping never costs extra leaf I/O.
			rng := rand.New(rand.NewSource(1))
			queries := make([]Rect, 150)
			for i := range queries {
				c := build[rng.Intn(len(build))].Rect.Center()
				queries[i] = R(c[0]-10, c[1]-10, c[2]-10, c[0]+10, c[1]+10, c[2]+10)
			}
			clipped.ResetIOStats()
			plain.ResetIOStats()
			for _, q := range queries {
				if clipped.Count(q) != plain.Count(q) {
					t.Fatalf("clipped and plain result counts differ for %v", q)
				}
			}
			if clipped.IOStats().LeafReads > plain.IOStats().LeafReads {
				t.Fatalf("clipping increased leaf I/O: %d > %d",
					clipped.IOStats().LeafReads, plain.IOStats().LeafReads)
			}

			// Phase 2: live updates keep both trees consistent.
			for _, it := range insertLater {
				if err := clipped.Insert(it.Rect, it.Object); err != nil {
					t.Fatal(err)
				}
				if err := plain.Insert(it.Rect, it.Object); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 1000; i++ { // delete a prefix of the original load
				if ok, err := clipped.Delete(build[i].Rect, build[i].Object); err != nil || !ok {
					t.Fatalf("clipped delete %d failed: %v %v", i, ok, err)
				}
				if ok, err := plain.Delete(build[i].Rect, build[i].Object); err != nil || !ok {
					t.Fatalf("plain delete %d failed: %v %v", i, ok, err)
				}
			}
			if clipped.Len() != plain.Len() || clipped.Len() != len(items)-1000 {
				t.Fatalf("sizes diverged: clipped %d plain %d", clipped.Len(), plain.Len())
			}
			for _, q := range queries {
				if clipped.Count(q) != plain.Count(q) {
					t.Fatalf("post-update results differ for %v", q)
				}
			}
			if err := clipped.Validate(); err != nil {
				t.Fatalf("clipped tree invalid after updates: %v", err)
			}
			if err := plain.Validate(); err != nil {
				t.Fatalf("plain tree invalid after updates: %v", err)
			}

			// Phase 3: kNN agrees between the two trees (clipping does not
			// affect nearest-neighbour results).
			for i := 0; i < 20; i++ {
				p := Pt(rng.Float64()*10000, rng.Float64()*10000, rng.Float64()*10000)
				a := clipped.NearestNeighbors(5, p)
				b := plain.NearestNeighbors(5, p)
				if len(a) != len(b) {
					t.Fatalf("kNN result sizes differ: %d vs %d", len(a), len(b))
				}
				for j := range a {
					if a[j].DistSq != b[j].DistSq {
						t.Fatalf("kNN distances differ at rank %d", j)
					}
				}
			}

			// Phase 4: structural statistics are self-consistent.
			s := clipped.Stats()
			if s.Objects != clipped.Len() || s.LeafNodes == 0 {
				t.Fatalf("stats inconsistent: %+v", s)
			}
		})
	}
}

func TestIntegrationJoinAcrossDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	axons, uni := loadDataset(t, "axo03", 4000, 5)
	dendrites, _ := loadDataset(t, "den03", 2000, 6)

	build := func(items []Item, clip ClipMethod) *Tree {
		tr, err := New(Options{Dims: 3, Variant: RRStarTree, Universe: uni, Clipping: clip})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	// Reference result from brute force.
	var want int64
	for _, a := range axons {
		for _, d := range dendrites {
			if a.Rect.Intersects(d.Rect) {
				want++
			}
		}
	}

	type combo struct{ left, right ClipMethod }
	for _, c := range []combo{{ClipNone, ClipNone}, {ClipStairline, ClipNone}, {ClipStairline, ClipStairline}} {
		left := build(axons, c.left)
		right := build(dendrites, c.right)
		stt, err := SynchronizedTreeTraversalJoin(left, right, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stt.Pairs != want {
			t.Fatalf("STT with clipping %v/%v found %d pairs, want %d", c.left, c.right, stt.Pairs, want)
		}
		inlj, err := IndexNestedLoopJoin(left, dendrites, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inlj.Pairs != want {
			t.Fatalf("INLJ with clipping %v found %d pairs, want %d", c.left, inlj.Pairs, want)
		}
	}
}

func TestIntegrationAllDatasetsBuildAndQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	for _, name := range datasets.Names() {
		t.Run(name, func(t *testing.T) {
			spec, _ := datasets.Lookup(name)
			items, uni := loadDataset(t, name, 3000, 17)
			tree, err := New(Options{Dims: spec.Dims, Variant: RStarTree, Universe: uni})
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.BulkLoad(items); err != nil {
				t.Fatal(err)
			}
			if err := tree.Validate(); err != nil {
				t.Fatal(err)
			}
			// A full-universe query returns everything exactly once.
			seen := make(map[ObjectID]int)
			tree.Search(uni, func(id ObjectID, _ Rect) bool {
				seen[id]++
				return true
			})
			if len(seen) != len(items) {
				t.Fatalf("full query found %d of %d objects", len(seen), len(items))
			}
			for id, c := range seen {
				if c != 1 {
					t.Fatalf("object %d returned %d times", id, c)
				}
			}
			// The compressed snapshot format's size bar on the data it is
			// built for: at most half of the v1 file.
			var v1, v2 bytes.Buffer
			if err := tree.SaveToFormat(&v1, SnapshotV1); err != nil {
				t.Fatal(err)
			}
			if err := tree.SaveToFormat(&v2, SnapshotV2); err != nil {
				t.Fatal(err)
			}
			if 2*v2.Len() > v1.Len() {
				t.Errorf("v2 snapshot is %d B, more than half of v1's %d B", v2.Len(), v1.Len())
			}
		})
	}
}
