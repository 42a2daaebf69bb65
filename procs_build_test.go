package cbb

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// A bulk build fans its ordering and its packing out over GOMAXPROCS, and a
// sharded load its shards; none of it may show in the result. Every way into
// the packed build — BulkLoad, InsertItems into an empty tree, the wholesale
// rebuild a batch of at least twice the tree's size triggers, and a sharded
// load followed by a forced split — writes the same snapshot bytes and
// charges the same node writes under 1, 2 and 8 procs. The inputs are big
// enough that 2 and 8 procs do take the concurrent paths (several sort runs,
// several packing chunks a level).
func TestBulkLoadDeterministicAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 40000
	digest := func(t *testing.T, trees ...*Tree) string {
		t.Helper()
		h := sha256.New()
		for _, tr := range trees {
			if err := tr.SaveTo(h); err != nil {
				t.Fatal(err)
			}
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	newTree := func(t *testing.T, opts Options) *Tree {
		t.Helper()
		tr, err := New(opts)
		must(t, err)
		return tr
	}
	// insertItems runs what Tree.InsertItems runs and checks that the batch
	// took a packed build: one that writes every node of the tree exactly
	// once, which no incremental ingest of the batch does.
	insertItems := func(t *testing.T, tr *Tree, items []Item) {
		t.Helper()
		u, err := tr.idx.InsertItems(items)
		must(t, err)
		if dir, leaf := tr.tree.NodeCount(); u.Writes != dir+leaf {
			t.Fatalf("InsertItems wrote %d nodes of a tree of %d: not a packed build", u.Writes, dir+leaf)
		}
	}
	paths := []struct {
		name  string
		build func(t *testing.T, opts Options, items []Item) (string, int64)
	}{
		{"BulkLoad", func(t *testing.T, opts Options, items []Item) (string, int64) {
			tr := newTree(t, opts)
			must(t, tr.BulkLoad(items))
			return digest(t, tr), tr.IOStats().Writes
		}},
		{"InsertItemsEmpty", func(t *testing.T, opts Options, items []Item) (string, int64) {
			tr := newTree(t, opts)
			insertItems(t, tr, items)
			return digest(t, tr), tr.IOStats().Writes
		}},
		{"Rebuild", func(t *testing.T, opts Options, items []Item) (string, int64) {
			tr := newTree(t, opts)
			must(t, tr.BulkLoad(items[:n/4]))
			insertItems(t, tr, items[n/4:])
			return digest(t, tr), tr.IOStats().Writes
		}},
		{"ShardedSplit", func(t *testing.T, opts Options, items []Item) (string, int64) {
			st, err := NewSharded(ShardedOptions{Options: opts, Shards: 3})
			must(t, err)
			must(t, st.BulkLoad(items))
			big := 0
			for i, l := range st.ShardLens() {
				if l > st.ShardLens()[big] {
					big = i
				}
			}
			must(t, st.SplitShard(big))
			if st.NumShards() != 4 {
				t.Fatalf("%d shards after one split of 3", st.NumShards())
			}
			var trees []*Tree
			for _, sh := range st.dir.Load().shards {
				trees = append(trees, sh.t)
			}
			return digest(t, trees...), st.IOStats().Writes
		}},
	}
	for _, c := range []struct {
		variant Variant
		dims    int
		clip    ClipMethod
	}{{RRStarTree, 2, ClipStairline}, {RRStarTree, 3, ClipNone}, {HRTree, 2, ClipNone}, {QRTree, 1, ClipSkyline}} {
		opts := Options{Dims: c.dims, Variant: c.variant, Clipping: c.clip, MaxEntries: 16, MinEntries: 6, Universe: shardUniverse(c.dims)}
		items := randShardItems(rand.New(rand.NewSource(int64(70+c.dims))), n, c.dims)
		for _, p := range paths {
			t.Run(fmt.Sprintf("%v/%dd/%v/%s", c.variant, c.dims, c.clip, p.name), func(t *testing.T) {
				var first string
				var firstWrites int64
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					got, writes := p.build(t, opts, items)
					if procs == 1 {
						first, firstWrites = got, writes
					} else if got != first || writes != firstWrites {
						t.Fatalf("GOMAXPROCS=%d: snapshot %s.. with %d node writes, under 1 proc %s.. with %d", procs, got[:12], writes, first[:12], firstWrites)
					}
				}
			})
		}
	}
}
