package rtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cbb/internal/geom"
)

func ingestItems(rng *rand.Rand, dims, n int, clustered bool) []Item {
	items := make([]Item, n)
	for i := range items {
		r := randRect(rng, dims, 1000, 5)
		if clustered {
			// Squeeze most items into a hot corner so Hilbert runs get long.
			if i%4 != 0 {
				r = randRect(rng, dims, 60, 2)
			}
		}
		items[i] = Item{Object: ObjectID(i + 1), Rect: r}
	}
	return items
}

func sortedAll(t *Tree, q geom.Rect) []string {
	var out []string
	t.CurrentVersion().Search(q, func(id ObjectID, r geom.Rect) bool {
		out = append(out, fmt.Sprintf("%d:%v", id, r))
		return true
	})
	sort.Strings(out)
	return out
}

func universeRect(dims int) geom.Rect {
	lo := make(geom.Point, dims)
	hi := make(geom.Point, dims)
	for d := 0; d < dims; d++ {
		lo[d], hi[d] = -1e7, 1e7
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// TestInsertItemsEquivalence checks that InsertItems indexes exactly the
// same objects as per-item Insert, for every variant, dims 1-3, into both
// empty and pre-populated trees, and that the tree stays valid.
func TestInsertItemsEquivalence(t *testing.T) {
	for _, v := range AllVariants() {
		for dims := 1; dims <= 3; dims++ {
			for _, seedSize := range []int{0, 300} {
				name := fmt.Sprintf("%s/dims=%d/seed=%d", v, dims, seedSize)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(42))
					seed := ingestItems(rng, dims, seedSize, false)
					batch := ingestItems(rng, dims, 900, true)
					for i := range batch {
						batch[i].Object = ObjectID(10000 + i)
					}

					batched := MustNew(smallConfig(dims, v))
					perItem := MustNew(smallConfig(dims, v))
					for _, tree := range []*Tree{batched, perItem} {
						for _, it := range seed {
							if _, err := tree.Insert(it.Rect, it.Object); err != nil {
								t.Fatalf("seed insert: %v", err)
							}
						}
					}
					if _, err := batched.InsertItems(batch); err != nil {
						t.Fatalf("InsertItems: %v", err)
					}
					for _, it := range batch {
						if _, err := perItem.Insert(it.Rect, it.Object); err != nil {
							t.Fatalf("per-item insert: %v", err)
						}
					}
					if batched.Len() != perItem.Len() {
						t.Fatalf("Len = %d, per-item %d", batched.Len(), perItem.Len())
					}
					if err := batched.Validate(); err != nil {
						t.Fatalf("Validate after InsertItems: %v", err)
					}
					q := universeRect(dims)
					if got, want := sortedAll(batched, q), sortedAll(perItem, q); len(got) != len(want) {
						t.Fatalf("result count %d, per-item %d", len(got), len(want))
					} else {
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("result %d: %s vs %s", i, got[i], want[i])
							}
						}
					}
					// Spot queries.
					for k := 0; k < 50; k++ {
						sq := randRect(rng, dims, 900, 80)
						got, want := sortedAll(batched, sq), sortedAll(perItem, sq)
						if len(got) != len(want) {
							t.Fatalf("query %v: %d results, per-item %d", sq, len(got), len(want))
						}
					}
				})
			}
		}
	}
}

// TestInsertItemsGraftEngages checks that a clustered batch actually uses
// the graft path and that grafting keeps the structure valid.
func TestInsertItemsGraftEngages(t *testing.T) {
	for _, v := range AllVariants() {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			dims := 2
			tree := MustNew(smallConfig(dims, v))
			// Seed densely so one leaf's MBB covers the hot region, and with
			// more than half the batch size: a batch of at least twice the
			// tree would be rebuilt wholesale instead of grafted.
			const seeded = 2400
			for i := 0; i < seeded; i++ {
				r := randRect(rng, dims, 100, 4)
				if _, err := tree.Insert(r, ObjectID(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			batch := make([]Item, 4000)
			for i := range batch {
				batch[i] = Item{Object: ObjectID(10000 + i), Rect: randRect(rng, dims, 100, 2)}
			}
			st, err := tree.InsertItems(batch)
			if err != nil {
				t.Fatal(err)
			}
			if st.Grafted == 0 {
				t.Fatalf("graft path never engaged: %+v", st.IngestStats)
			}
			if st.Grafted+st.RunPlaced+st.PerItem != len(batch) {
				t.Fatalf("items unaccounted: %+v", st.IngestStats)
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("Validate after graft: %v", err)
			}
			if tree.Len() != seeded+len(batch) {
				t.Fatalf("Len = %d, want %d", tree.Len(), seeded+len(batch))
			}
		})
	}
}

// TestInsertItemsRebuildEngages checks that a batch dwarfing the tree takes
// the wholesale-rebuild path, keeps every old and new object searchable, and
// reports every live node as created so downstream maintenance can rebuild
// its per-node state.
func TestInsertItemsRebuildEngages(t *testing.T) {
	for _, v := range AllVariants() {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			dims := 2
			tree := MustNew(smallConfig(dims, v))
			seed := ingestItems(rng, dims, 200, false)
			for i, it := range seed {
				if _, err := tree.Insert(it.Rect, ObjectID(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			batch := make([]Item, 1000)
			for i := range batch {
				batch[i] = Item{Object: ObjectID(10000 + i), Rect: randRect(rng, dims, 100, 2)}
			}
			trace, err := tree.InsertItems(batch)
			if err != nil {
				t.Fatal(err)
			}
			if !trace.Rebuilt {
				t.Fatalf("rebuild path did not engage: %+v", trace.IngestStats)
			}
			s := tree.Stats()
			dir, leaf := s.DirNodes, s.LeafNodes
			if len(trace.Created) != dir+leaf {
				t.Fatalf("trace.Created %d, live nodes %d", len(trace.Created), dir+leaf)
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("Validate after rebuild: %v", err)
			}
			if tree.Len() != len(seed)+len(batch) {
				t.Fatalf("Len = %d, want %d", tree.Len(), len(seed)+len(batch))
			}
			// Every pre-existing and batch object must still be found.
			found := 0
			tree.CurrentVersion().Search(geom.Rect{Lo: geom.Point{-1000, -1000}, Hi: geom.Point{1000, 1000}}, func(ObjectID, geom.Rect) bool {
				found++
				return true
			})
			if found != len(seed)+len(batch) {
				t.Fatalf("search found %d, want %d", found, len(seed)+len(batch))
			}
			// A small follow-up batch must not rebuild again.
			small := []Item{{Object: 99999, Rect: randRect(rng, dims, 100, 2)}}
			again, err := tree.InsertItems(small)
			if err != nil {
				t.Fatal(err)
			}
			if again.Rebuilt {
				t.Fatalf("small follow-up batch rebuilt: %+v", again.IngestStats)
			}
		})
	}
}

// TestInsertItemsEmptyTreeBulk checks the empty-tree path bulk packs and
// reports every node as created.
func TestInsertItemsEmptyTreeBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, v := range AllVariants() {
		tree := MustNew(smallConfig(2, v))
		batch := ingestItems(rng, 2, 1000, false)
		trace, err := tree.InsertItems(batch)
		if err != nil {
			t.Fatal(err)
		}
		if !trace.BulkLoaded {
			t.Fatalf("%s: empty-tree batch did not bulk load", v)
		}
		s := tree.Stats()
		dir, leaf := s.DirNodes, s.LeafNodes
		if len(trace.Created) != dir+leaf {
			t.Fatalf("%s: trace.Created %d, nodes %d", v, len(trace.Created), dir+leaf)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if tree.Len() != len(batch) {
			t.Fatalf("%s: Len %d", v, tree.Len())
		}
	}
}

// TestInsertItemsInExplicitBatch checks InsertItems composes with
// BeginBatch/CommitBatch (no publish until commit) and RollbackBatch
// discards it.
func TestInsertItemsInExplicitBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tree := MustNew(smallConfig(2, RStar))
	seedItems := ingestItems(rng, 2, 200, false)
	for _, it := range seedItems {
		if _, err := tree.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
	}
	batch := ingestItems(rng, 2, 1000, true)
	for i := range batch {
		batch[i].Object = ObjectID(5000 + i)
	}

	if err := tree.BeginBatch(); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.InsertItems(batch); err != nil {
		t.Fatal(err)
	}
	if got := tree.CurrentVersion().Len(); got != 200 {
		t.Fatalf("readers saw uncommitted batch: Len %d", got)
	}
	tree.RollbackBatch()
	if tree.Len() != 200 {
		t.Fatalf("rollback failed: Len %d", tree.Len())
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("after rollback: %v", err)
	}

	if err := tree.BeginBatch(); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.InsertItems(batch); err != nil {
		t.Fatal(err)
	}
	tree.CommitBatch()
	if tree.Len() != 200+len(batch) {
		t.Fatalf("after commit: Len %d", tree.Len())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertItemsRejectsInvalid checks dimension/validity screening before
// any mutation happens.
func TestInsertItemsRejectsInvalid(t *testing.T) {
	tree := MustNew(smallConfig(2, Quadratic))
	bad := []Item{
		{Object: 1, Rect: geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{1, 1}}},
		{Object: 2, Rect: geom.Rect{Lo: geom.Point{0}, Hi: geom.Point{1}}}, // wrong dims
	}
	if _, err := tree.InsertItems(bad); err == nil {
		t.Fatal("expected dimensionality error")
	}
	if tree.Len() != 0 {
		t.Fatalf("failed batch mutated the tree: Len %d", tree.Len())
	}
}
