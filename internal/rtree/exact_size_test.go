package rtree

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"cbb/internal/geom"
	"cbb/internal/storage"
)

// checkExactlySized fails when a node the version holds keeps more capacity
// than slots in boxes, refs or qplanes: spare capacity in a published node is
// heap that no write will ever use (a later write clones the node).
func checkExactlySized(t *testing.T, v *Version, step string) {
	t.Helper()
	if v.root == InvalidNode {
		return
	}
	stack := []NodeID{v.root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := v.dir.at(id).node.Load()
		if cap(n.boxes) != len(n.boxes) || cap(n.refs) != len(n.refs) || cap(n.qplanes) != len(n.qplanes) {
			t.Fatalf("%s: epoch %d node %d (%d slots) holds boxes %d/%d, refs %d/%d, qplanes %d/%d (len/cap)",
				step, v.epoch, id, n.count(), len(n.boxes), cap(n.boxes), len(n.refs), cap(n.refs), len(n.qplanes), cap(n.qplanes))
		}
		if !n.leaf {
			for i := range n.refs {
				stack = append(stack, n.child(i))
			}
		}
	}
}

// exactSizeGolden holds, per variant, the digest of every trace the writes
// on the v2-loaded tree return (see TestPublishedNodesExactlySized), as the
// code that folded each node's boxes for its MBB produced them. A v2
// directory holds its page's exact MBB beside conservatively decoded boxes,
// so a write that read that MBB before re-quantising the node would report
// MBB changes the fold does not see.
var exactSizeGolden = map[string]string{
	"QR-tree":  "0a45b5f13072a595",
	"HR-tree":  "c3084644100a165d",
	"R*-tree":  "6a3c386f09860fb6",
	"RR*-tree": "f0120844a5461a2e",
}

// TestPublishedNodesExactlySized holds every node of every published version
// to exactly its slots, across the write paths of all four variants: single
// inserts through splits (and R* forced reinsertion), deletes through
// condense, InsertItems through direct placement and grafts, an explicit
// batch that puts several items into one leaf, a rolled-back batch, and the
// same writes on a tree loaded from a v2 snapshot.
func TestPublishedNodesExactlySized(t *testing.T) {
	for _, v := range AllVariants() {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(v) + 61))
			cfg := smallConfig(2, v)
			next := ObjectID(0)
			newItems := func(k int, span, side float64) []Item {
				out := make([]Item, k)
				for i := range out {
					out[i] = Item{Object: next, Rect: randRect(rng, 2, span, side)}
					next++
				}
				return out
			}
			tr := MustNew(cfg)
			live := newItems(1500, 100, 4)
			if err := tr.BulkLoad(live); err != nil {
				t.Fatal(err)
			}
			checkExactlySized(t, tr.CurrentVersion(), "bulk load")

			// writes runs the same history on a tree and returns the live
			// items; each commit is checked, and every trace goes into h.
			writes := func(tr *Tree, live []Item, h func(string, ...any)) []Item {
				for i := 0; i < 200; i++ {
					it := newItems(1, 100, 4)[0]
					trace, err := tr.Insert(it.Rect, it.Object)
					if err != nil {
						t.Fatal(err)
					}
					h("insert", trace.Leaf, trace.Split, trace.Created, trace.MBBChanged, trace.Reinserted)
					live = append(live, it)
					checkExactlySized(t, tr.CurrentVersion(), fmt.Sprintf("insert %d", i))
				}
				for i := 0; i < 300; i++ {
					k := rng.Intn(len(live))
					it := live[k]
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					trace, err := tr.Delete(it.Rect, it.Object)
					if err != nil || !trace.Found {
						t.Fatalf("delete %d: found %v, err %v", i, trace != nil && trace.Found, err)
					}
					h("delete", trace.Leaf, trace.MBBChanged, trace.Removed, trace.Reinserted)
					checkExactlySized(t, tr.CurrentVersion(), fmt.Sprintf("delete %d", i))
				}
				var placed, grafted int
				for i := 0; i < 12; i++ {
					// Scattered batches place into leaves directly; dense
					// small rectangles make runs of at least M items, which
					// are grafted.
					batch := newItems(24, 100, 4)
					if i%3 == 2 {
						batch = newItems(160, 10, 0.5)
					}
					trace, err := tr.InsertItems(batch)
					if err != nil {
						t.Fatal(err)
					}
					h("items", trace.Split, trace.Created, trace.MBBChanged, trace.Reinserted)
					placed += trace.RunPlaced
					grafted += trace.Grafted
					live = append(live, batch...)
					checkExactlySized(t, tr.CurrentVersion(), fmt.Sprintf("InsertItems %d", i))
				}
				if placed == 0 || grafted == 0 {
					t.Fatalf("InsertItems placed %d items directly and grafted %d: both paths must run", placed, grafted)
				}

				// Several items into one leaf in one explicit batch: around
				// the centre of a live object, so each lands in its leaf.
				c := live[rng.Intn(len(live))].Rect.Center()
				if err := tr.BeginBatch(); err != nil {
					t.Fatal(err)
				}
				leaves := map[NodeID]int{}
				for i := 0; i < 3; i++ {
					r := geom.Rect{Lo: geom.Point{c[0] - 0.01*float64(i), c[1]}, Hi: geom.Point{c[0], c[1] + 0.01}}
					trace, err := tr.Insert(r, next)
					if err != nil {
						t.Fatal(err)
					}
					h("batch insert", trace.Leaf, trace.Split, trace.Created, trace.MBBChanged, trace.Reinserted)
					leaves[trace.Leaf]++
					live = append(live, Item{Object: next, Rect: r})
					next++
				}
				tr.CommitBatch()
				checkExactlySized(t, tr.CurrentVersion(), "explicit batch")
				most := 0
				for _, k := range leaves {
					most = max(most, k)
				}
				if most < 2 {
					t.Fatalf("the explicit batch put no two items into one leaf: %v", leaves)
				}

				// A rolled-back batch publishes nothing, and the writes after
				// it start from the published nodes.
				if err := tr.BeginBatch(); err != nil {
					t.Fatal(err)
				}
				for _, it := range newItems(5, 100, 4) {
					if _, err := tr.Insert(it.Rect, it.Object); err != nil {
						t.Fatal(err)
					}
				}
				tr.RollbackBatch()
				checkExactlySized(t, tr.CurrentVersion(), "rollback")
				for i, it := range newItems(20, 100, 4) {
					trace, err := tr.Insert(it.Rect, it.Object)
					if err != nil {
						t.Fatal(err)
					}
					h("insert after rollback", trace.Leaf, trace.Split, trace.Created, trace.MBBChanged)
					live = append(live, it)
					checkExactlySized(t, tr.CurrentVersion(), fmt.Sprintf("insert %d after rollback", i))
				}
				if err := tr.Validate(); err != nil {
					t.Fatal(err)
				}
				if tr.Len() != len(live) {
					t.Fatalf("Len %d, want %d", tr.Len(), len(live))
				}
				return live
			}
			live = writes(tr, live, func(string, ...any) {})

			// The same writes on a tree loaded from a v2 snapshot, whose
			// directories start out with conservatively decoded boxes.
			need, err := tr.MaxEncodedNodeBytes(CodecV2)
			if err != nil {
				t.Fatal(err)
			}
			pager := storage.NewImage(need)
			pages, err := tr.Save(pager, CodecV2)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Load(cfg, pager, pages, tr.RootID(), CodecV2)
			if err != nil {
				t.Fatal(err)
			}
			checkExactlySized(t, back.CurrentVersion(), "v2 load")
			digest := sha256.New()
			writes(back, live, func(op string, fields ...any) { fmt.Fprintln(digest, op, fields) })
			if got := fmt.Sprintf("%x", digest.Sum(nil))[:16]; got != exactSizeGolden[v.String()] {
				t.Errorf("traces of the writes on the v2-loaded tree digest to %s, want %s", got, exactSizeGolden[v.String()])
			}
		})
	}
}
