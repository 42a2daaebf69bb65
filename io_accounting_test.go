package cbb

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cbb/internal/clipindex"
	"cbb/internal/storage"
)

// Every read path counts node accesses — the paper's I/O metric — and every
// engine reports them: a range search, a count, a batch on any number of
// workers, a kNN query, both joins. TestIOAccountingIdentity runs one script
// of all of them on every engine (a Tree, a View, a sharded engine after a
// split and its view, an opened v1 file behind a byte-budget buffer pool, a
// mapped v2 file), 2-D and 3-D, clipped and not, and holds the cumulative
// IOStats after every step, every BatchResult.IO and JoinResult.IO and the
// buffer statistics to digests recorded before the read paths tallied their
// accesses privately.

// ioAccountingGolden maps each case to the digest of its script log (see
// accountingScript).
var ioAccountingGolden = map[string]string{
	"TestIOAccountingIdentity/rea02/none/tree":         "f6386476b9c59a2b 130",
	"TestIOAccountingIdentity/rea02/none/view":         "f6386476b9c59a2b 130",
	"TestIOAccountingIdentity/rea02/none/sharded":      "5204d0cec0dd9d79 130",
	"TestIOAccountingIdentity/rea02/none/sharded-view": "5204d0cec0dd9d79 130",
	"TestIOAccountingIdentity/rea02/none/open-v1-pool": "aa53bef84118ec84 130",
	"TestIOAccountingIdentity/rea02/none/mmap-v2":      "90a8ad6b1b886fd7 130",
	"TestIOAccountingIdentity/rea02/CSTA/tree":         "cd275e64dcf35203 130",
	"TestIOAccountingIdentity/rea02/CSTA/view":         "cd275e64dcf35203 130",
	"TestIOAccountingIdentity/rea02/CSTA/sharded":      "69a0e62e143f11b7 130",
	"TestIOAccountingIdentity/rea02/CSTA/sharded-view": "69a0e62e143f11b7 130",
	"TestIOAccountingIdentity/rea02/CSTA/open-v1-pool": "169d314001784588 130",
	"TestIOAccountingIdentity/rea02/CSTA/mmap-v2":      "dcfda8a070721e4b 130",
	"TestIOAccountingIdentity/axo03/none/tree":         "74ae7bec0573aa7b 130",
	"TestIOAccountingIdentity/axo03/none/view":         "74ae7bec0573aa7b 130",
	"TestIOAccountingIdentity/axo03/none/sharded":      "04492cc45b0e9450 130",
	"TestIOAccountingIdentity/axo03/none/sharded-view": "04492cc45b0e9450 130",
	"TestIOAccountingIdentity/axo03/none/open-v1-pool": "ac631a009555eb7e 130",
	"TestIOAccountingIdentity/axo03/none/mmap-v2":      "06a08d2f3e700ee8 130",
	"TestIOAccountingIdentity/axo03/CSTA/tree":         "b22f6808926b00f1 130",
	"TestIOAccountingIdentity/axo03/CSTA/view":         "b22f6808926b00f1 130",
	"TestIOAccountingIdentity/axo03/CSTA/sharded":      "d9dffbeadf7c5ba2 130",
	"TestIOAccountingIdentity/axo03/CSTA/sharded-view": "d9dffbeadf7c5ba2 130",
	"TestIOAccountingIdentity/axo03/CSTA/open-v1-pool": "703cd137808a8529 130",
	"TestIOAccountingIdentity/axo03/CSTA/mmap-v2":      "9b0fa5ca073837f7 130",
}

// accountingReader is the read surface the script drives: *Tree, *View,
// *ShardedTree and *ShardedView all have it.
type accountingReader interface {
	Reader
	Search(q Rect, visit func(ObjectID, Rect) bool)
	Count(q Rect) int
	SearchAll(q Rect) []Item
	NearestNeighbors(k int, p Point) []Neighbor
}

// accountingOwner is the engine whose counters the reads charge.
type accountingOwner interface {
	IOStats() IOStats
	BufferStats() (BufferStats, bool)
}

// accountingEngine is one engine under test: what the script reads, how it
// runs a batch on it, and whose statistics move.
type accountingEngine struct {
	r     accountingReader
	batch func([]Rect, BatchOptions) (BatchResult, error)
	owner accountingOwner
}

// accountingInputs is one corpus with the script's queries, kNN points, join
// probes and the plain tree the STT join pairs every engine with.
type accountingInputs struct {
	opts    Options
	items   []Item
	queries []Rect
	points  []Point
	probes  []Item
	other   *Tree
}

func newAccountingInputs(t *testing.T, dataset string, n int, clipping ClipMethod) accountingInputs {
	t.Helper()
	items, uni := loadDataset(t, dataset, n, 42)
	// A fanout of 16 makes the trees four levels deep at these sizes.
	in := accountingInputs{opts: Options{Dims: uni.Dims(), Universe: uni, Clipping: clipping, MaxEntries: 16}, items: items}
	for i := 0; i < len(items); i += 20 {
		in.probes = append(in.probes, Item{Object: ObjectID(n + i), Rect: items[i].Rect})
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < 30; i++ {
		c := items[rng.Intn(len(items))].Rect
		lo, hi, p := make(Point, uni.Dims()), make(Point, uni.Dims()), make(Point, uni.Dims())
		for d := range lo {
			half := (uni.Hi[d] - uni.Lo[d]) * (0.005 + 0.03*rng.Float64())
			p[d] = (c.Lo[d] + c.Hi[d]) / 2
			lo[d], hi[d] = p[d]-half, p[d]+half
		}
		in.queries = append(in.queries, Rect{Lo: lo, Hi: hi})
		in.points = append(in.points, p)
	}
	var err error
	if in.other, err = New(Options{Dims: uni.Dims(), Universe: uni, Clipping: ClipNone, MaxEntries: 16}); err != nil {
		t.Fatal(err)
	}
	if err := in.other.BulkLoad(in.probes); err != nil {
		t.Fatal(err)
	}
	return in
}

// accountingScript runs the read script on e and returns its log: every
// call's answer size, the call's own I/O where it reports one, and after
// every call the owner's and the join partner's IOStats and the owner's
// buffer statistics.
func accountingScript(t *testing.T, e accountingEngine, in accountingInputs) string {
	t.Helper()
	var log strings.Builder
	step := func(format string, args ...any) {
		bs, ok := e.owner.BufferStats()
		fmt.Fprintf(&log, format, args...)
		fmt.Fprintf(&log, " | io %+v other %+v buffers %+v %v\n", e.owner.IOStats(), in.other.IOStats(), bs, ok)
	}
	for i, q := range in.queries {
		hits := 0
		e.r.Search(q, func(ObjectID, Rect) bool { hits++; return true })
		step("search %d %d", i, hits)
	}
	for i, q := range in.queries {
		step("count %d %d", i, e.r.Count(q))
	}
	for i, q := range in.queries {
		step("all %d %d", i, len(e.r.SearchAll(q)))
	}
	for _, workers := range []int{1, 2, 4} {
		for _, collect := range []bool{false, true} {
			res, err := e.batch(in.queries, BatchOptions{Workers: workers, Collect: collect})
			if err != nil {
				t.Fatal(err)
			}
			items := 0
			for _, its := range res.Items {
				items += len(its)
			}
			step("batch workers=%d collect=%v counts %v items %d io %+v", workers, collect, res.Counts, items, res.IO)
		}
	}
	for i, p := range in.points {
		step("knn %d %d", i, len(e.r.NearestNeighbors(10, p)))
	}
	for _, workers := range []int{1, 4} {
		res, err := JoinItems(e.r, in.probes, JoinOptions{Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		step("inlj workers=%d %+v", workers, res)
		if res, err = Join(e.r, in.other, JoinOptions{Workers: workers}, nil); err != nil {
			t.Fatal(err)
		}
		step("stt workers=%d %+v", workers, res)
	}
	return log.String()
}

func TestIOAccountingIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("I/O accounting identity skipped in -short mode")
	}
	for _, ds := range []struct {
		name string
		n    int
	}{{"rea02", 6000}, {"axo03", 5000}} {
		for _, clipping := range []ClipMethod{ClipNone, ClipStairline} {
			in := newAccountingInputs(t, ds.name, ds.n, clipping)
			build := func(t *testing.T) *Tree {
				tr, err := New(in.opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.BulkLoad(in.items); err != nil {
					t.Fatal(err)
				}
				return tr
			}
			buildSharded := func(t *testing.T) *ShardedTree {
				st, err := NewSharded(ShardedOptions{Options: in.opts, Shards: 4})
				if err != nil {
					t.Fatal(err)
				}
				if err := st.BulkLoad(in.items); err != nil {
					t.Fatal(err)
				}
				if err := st.SplitShard(0); err != nil || st.NumShards() != 5 {
					t.Fatalf("SplitShard(0): %v, %d shards", err, st.NumShards())
				}
				return st
			}
			// file writes a freshly built tree as a snapshot in the given
			// format and opens it.
			file := func(t *testing.T, format SnapshotFormat, open func(string) (*Tree, error)) *Tree {
				path := filepath.Join(t.TempDir(), "accounting.cbb")
				if err := build(t).WriteSnapshot(path, format); err != nil {
					t.Fatal(err)
				}
				tr, err := open(path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { tr.Close() })
				return tr
			}
			treeEngine := func(tr *Tree) accountingEngine {
				return accountingEngine{r: tr, owner: tr, batch: func(qs []Rect, o BatchOptions) (BatchResult, error) { return BatchSearch(tr, qs, o) }}
			}
			engines := []struct {
				name  string
				build func(t *testing.T) accountingEngine
			}{
				{"tree", func(t *testing.T) accountingEngine { return treeEngine(build(t)) }},
				{"view", func(t *testing.T) accountingEngine {
					tr := build(t)
					v := tr.Snapshot()
					t.Cleanup(v.Close)
					return accountingEngine{r: v, owner: tr, batch: v.BatchSearch}
				}},
				{"sharded", func(t *testing.T) accountingEngine {
					st := buildSharded(t)
					return accountingEngine{r: st, owner: st, batch: st.BatchSearch}
				}},
				{"sharded-view", func(t *testing.T) accountingEngine {
					st := buildSharded(t)
					v := st.Snapshot()
					t.Cleanup(v.Close)
					return accountingEngine{r: v, owner: st, batch: v.BatchSearch}
				}},
				{"open-v1-pool", func(t *testing.T) accountingEngine {
					tr := file(t, SnapshotV1, Open)
					// Large enough that nothing is evicted, so hits and misses do
					// not depend on how the parallel steps interleave.
					tr.AttachBufferPoolBytes(64 << 20)
					return treeEngine(tr)
				}},
				{"mmap-v2", func(t *testing.T) accountingEngine {
					return treeEngine(file(t, SnapshotV2, OpenMmap))
				}},
			}
			for _, eng := range engines {
				t.Run(fmt.Sprintf("%s/%v/%s", ds.name, clipping, eng.name), func(t *testing.T) {
					in.other.ResetIOStats()
					log := accountingScript(t, eng.build(t), in)
					sum := sha256.Sum256([]byte(log))
					got := fmt.Sprintf("%x %d", sum[:8], strings.Count(log, "\n"))
					if want, ok := ioAccountingGolden[t.Name()]; !ok || got != want {
						t.Errorf("digest %s, recorded %q", got, want)
					}
				})
			}
		}
	}
}

// TestIOAccountingConcurrent runs batches and both joins from four
// goroutines at once on a Tree and on a sharded engine and holds the change
// in the engine's IOStats to the sum of the I/O the calls returned: no access
// is lost or counted twice however the reads interleave. The joins are
// self-joins, so both of their sides charge the engine's counter.
func TestIOAccountingConcurrent(t *testing.T) {
	items, uni := loadDataset(t, "rea02", 4000, 7)
	probes, _ := loadDataset(t, "rea02", 200, 8)
	qs := make([]Rect, 0, 40)
	for _, it := range probes[:40] {
		qs = append(qs, Rect{Lo: Point{it.Rect.Lo[0] - 300, it.Rect.Lo[1] - 300}, Hi: Point{it.Rect.Hi[0] + 300, it.Rect.Hi[1] + 300}})
	}
	opts := Options{Dims: 2, Universe: uni}
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewSharded(ShardedOptions{Options: opts, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if err := st.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	for _, eng := range []struct {
		name  string
		r     Reader
		io    func() IOStats
		batch func([]Rect, BatchOptions) (BatchResult, error)
	}{
		{"tree", tr, tr.IOStats, func(qs []Rect, o BatchOptions) (BatchResult, error) { return BatchSearch(tr, qs, o) }},
		{"sharded", st, st.IOStats, st.BatchSearch},
	} {
		t.Run(eng.name, func(t *testing.T) {
			before := eng.io()
			var mu sync.Mutex
			var sum IOStats
			add := func(io IOStats) {
				mu.Lock()
				sum = IOStats{LeafReads: sum.LeafReads + io.LeafReads, DirReads: sum.DirReads + io.DirReads}
				mu.Unlock()
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 3; round++ {
						res, err := eng.batch(qs, BatchOptions{Workers: 2, Collect: round%2 == 1})
						if err != nil {
							t.Error(err)
							return
						}
						add(res.IO)
						inlj, err := JoinItems(eng.r, probes, JoinOptions{Workers: 2}, nil)
						if err != nil {
							t.Error(err)
							return
						}
						add(inlj.IO)
						stt, err := Join(eng.r, eng.r, JoinOptions{Workers: 2}, nil)
						if err != nil {
							t.Error(err)
							return
						}
						add(stt.IO)
					}
				}()
			}
			wg.Wait()
			after := eng.io()
			delta := IOStats{LeafReads: after.LeafReads - before.LeafReads, DirReads: after.DirReads - before.DirReads, Writes: after.Writes - before.Writes, Reclips: after.Reclips - before.Reclips}
			if delta != sum || sum.LeafReads == 0 {
				t.Fatalf("IOStats moved by %+v, the calls returned %+v in total", delta, sum)
			}
		})
	}
}

// TestWriteAccounting is TestIOAccountingConcurrent's read check for writes:
// on each variant, a seeded history of bulk loads, inserts, batch inserts
// (through the empty-tree, per-run and wholesale-rebuild paths), deletes (a
// miss among them), a rolled-back batch and a shard split moves the counter's
// Writes and Reclips after every call by exactly the tally the call returned
// — clipindex's UpdateStats — and a bulk build, which returns none, by one
// write per node it packed and no reclip. A rollback charges nothing and
// unwinds nothing: the work was done.
func TestWriteAccounting(t *testing.T) {
	for _, v := range []Variant{QRTree, HRTree, RStarTree, RRStarTree} {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(40 + v)))
			opts := Options{Dims: 2, Variant: v, MaxEntries: 8, MinEntries: 3, Universe: shardUniverse(2)}
			items := randShardItems(rng, 2000, 2)
			var ctr storage.Snapshot
			var charged func() storage.Snapshot
			expect := func(step string, writes, reclips int) {
				t.Helper()
				now := charged()
				if want := ctr.Add(storage.Snapshot{Writes: int64(writes), Reclips: int64(reclips)}); now != want {
					t.Fatalf("%s moved the counter from %v to %v; its tally: %d writes, %d reclips", step, ctr, now, writes, reclips)
				}
				ctr = now
			}
			call := func(step string, u clipindex.UpdateStats, err error) clipindex.UpdateStats {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				expect(step, u.Writes, u.TotalReclips())
				return u
			}
			nodes := func(trees ...*Tree) int {
				n := 0
				for _, tr := range trees {
					dir, leaf := tr.tree.NodeCount()
					n += dir + leaf
				}
				return n
			}

			tr, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			charged = tr.tree.Counter().Snapshot
			if err := tr.BulkLoad(items[:300]); err != nil {
				t.Fatal(err)
			}
			expect("BulkLoad", nodes(tr), 0)
			var sum clipindex.UpdateStats
			for i, it := range items[300:400] {
				u, err := tr.idx.Insert(it.Rect, it.Object)
				sum = sum.Add(call(fmt.Sprintf("Insert %d", i), u, err))
			}
			for b := 0; b < 4; b++ {
				u, err := tr.idx.InsertItems(items[400+50*b : 450+50*b])
				sum = sum.Add(call(fmt.Sprintf("InsertItems %d", b), u, err))
			}
			for i, it := range items[:120] {
				u, err := tr.idx.Delete(it.Rect, it.Object)
				sum = sum.Add(call(fmt.Sprintf("Delete %d", i), u, err))
			}
			u, err := tr.idx.Delete(items[0].Rect, items[0].Object)
			if call("Delete of a missing object", u, err).Deletes != 0 {
				t.Fatal("a missing object was deleted")
			}
			if sum.Inserts != 300 || sum.Deletes != 120 || sum.TotalReclips() == 0 || sum.Writes == 0 {
				t.Fatalf("history tallied %+v", sum)
			}

			if err := tr.idx.Begin(); err != nil {
				t.Fatal(err)
			}
			u, err = tr.idx.Insert(items[600].Rect, items[600].Object)
			call("Insert in a batch", u, err)
			u, err = tr.idx.InsertItems(items[601:700])
			call("InsertItems in a batch", u, err)
			u, err = tr.idx.Delete(items[200].Rect, items[200].Object)
			call("Delete in a batch", u, err)
			tr.idx.Rollback()
			expect("Rollback", 0, 0)

			u, err = tr.idx.InsertItems(items[600:])
			call("InsertItems rebuilding the tree", u, err)
			if u.Writes != nodes(tr) || u.TotalReclips() != 0 {
				t.Fatalf("a wholesale rebuild tallied %+v for a tree of %d nodes", u, nodes(tr))
			}
			empty, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			charged, ctr = empty.tree.Counter().Snapshot, storage.Snapshot{}
			u, err = empty.idx.InsertItems(items)
			call("InsertItems into an empty tree", u, err)
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}

			st, err := NewSharded(ShardedOptions{Options: opts, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			charged, ctr = st.counter.Snapshot, storage.Snapshot{}
			if err := st.BulkLoad(items); err != nil {
				t.Fatal(err)
			}
			d := st.dir.Load()
			expect("sharded BulkLoad", nodes(d.shards[0].t, d.shards[1].t), 0)
			if err := st.SplitShard(0); err != nil {
				t.Fatal(err)
			}
			if d = st.dir.Load(); len(d.shards) != 3 {
				t.Fatalf("%d shards after one split of 2", len(d.shards))
			}
			expect("SplitShard", nodes(d.shards[0].t, d.shards[1].t), 0)
		})
	}
}
