package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"cbb"
	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/hilbert"
	"cbb/internal/rtree"
	"cbb/internal/server"
	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

// The ladder replays the first ladderOps operations of a workload's own
// stream, single-threaded, at each boundary reachable through exported
// functions, on indexes restored from one snapshot of one build (so node
// ids, structure and node-access counts are identical on every rung). A
// layer's self time is its rung minus the rung below, so rungs that are
// subtracted from one another are replayed interleaved: the replay is cut
// into maxSubWindows rounds and every round visits every rung, which puts
// the same stretch of host noise under all of them; a rung's figure is then
// the same sub-window estimate the end-to-end metrics use. Nothing here
// edits the program: a boundary without exported surface has no rung (the
// README lists those).
const (
	ladderOps = 20000
	// Rungs that wait on the coalescing timer or a socket replay fewer
	// operations; their medians settle long before.
	coalescedOps   = 1500
	loopbackOps    = 5000
	loopbackWrites = 200
	burstPerConn   = 1000
	batchReps      = 5  // BatchSearch and join repetitions
	ladderCommits  = 20 // write rungs: this many 256-item commits each
	shardBatches   = 200
	hilbertCalls   = 200000
	queryDeadCalls = 400000
)

type ladder struct {
	rc   *runCtx
	in   *inputs
	m    *measurements
	ops  []cbb.Rect  // the replayed range queries
	pts  []cbb.Point // and kNN points
	want int         // oracle: total results of ops

	tree  *cbb.Tree // clipped (library defaults), in memory
	plain *cbb.Tree // ClipNone twin
	snap  []byte    // v1 snapshot stream of tree: every other twin is restored from it
	fresh []cbb.Item
}

func runLadder(rc *runCtx, in *inputs, m *measurements) error {
	n := min(ladderOps, len(in.ranges))
	l := &ladder{rc: rc, in: in, m: m, ops: in.ranges[:n], pts: in.knn[:n]}
	for _, w := range in.want[:n] {
		l.want += int(w)
	}
	var err error
	need := ladderCommits*ingestBatch*3 + (shardBatches+1)*shardBatch
	// Ids far above anything the workload itself inserted.
	if l.fresh, err = freshItems(in.dataset, need, 1<<40, rc.cfg.seed+20); err != nil {
		return err
	}
	rc.tr.enabled.Store(true)
	defer rc.tr.enabled.Store(false)
	if err := l.build(); err != nil {
		return fmt.Errorf("ladder build: %w", err)
	}
	if err := l.reads(); err != nil {
		return fmt.Errorf("ladder reads: %w", err)
	}
	if err := l.join(); err != nil {
		return fmt.Errorf("ladder join: %w", err)
	}
	if err := l.writes(); err != nil {
		return fmt.Errorf("ladder writes: %w", err)
	}
	return nil
}

// take hands out the next n ladder-private fresh objects.
func (l *ladder) take(n int) []cbb.Item {
	out := l.fresh[:n]
	l.fresh = l.fresh[n:]
	return out
}

// rung is one boundary of an interleaved replay.
type rung struct {
	name string
	op   func(i int)
}

// replay runs operations 0..n-1 of every rung once, interleaved by rounds,
// and returns each rung's median latency in ns by the sub-window estimator.
// Two things keep one rung from riding on another. The operations are cut
// into as many chunks as there are rounds and rung k replays chunk (round+k)
// in each round: every rung sees every operation exactly once, but
// neighbours never replay the same chunk back to back. And odd rounds visit
// the rungs in reverse: a rung that shares a tree with its neighbour (View
// after Tree, say) measurably gains from running second, so each of the two
// runs second in half the rounds.
func (l *ladder) replay(n int, rungs []rung) map[string]float64 {
	rounds := min(maxSubWindows, n)
	subs := make([][]subWindow, len(rungs))
	for round := 0; round < rounds; round++ {
		for pos := range rungs {
			k := pos
			if round%2 == 1 {
				k = len(rungs) - 1 - pos
			}
			chunk := (round + k) % rounds
			lo, hi := chunk*n/rounds, (chunk+1)*n/rounds
			r := newRecorder(time.Now(), hi-lo)
			r.runCount(l.rc.tr, rungs[k].name, hi-lo, func(i int) { rungs[k].op(lo + i) })
			subs[k] = append(subs[k], r.whole())
		}
	}
	out := make(map[string]float64, len(rungs))
	for k, rg := range rungs {
		out[rg.name] = summarize(subs[k]).p50
	}
	return out
}

// searchRung builds a range-replay rung; done, called after the replay,
// holds the rung's total result count against the oracle.
func (l *ladder) searchRung(name string, search searchFn) (rung, func()) {
	visit, cnt := countVisitor()
	return rung{name, func(i int) { search(l.ops[i], visit) }}, func() {
		l.rc.tally.check(*cnt == l.want, "ladder rung %s returned %d objects in total, oracle says %d", name, *cnt, l.want)
	}
}

// single replays one rung on its own.
func (l *ladder) single(name string, n int, op func(i int)) float64 {
	return l.replay(n, []rung{{name, op}})[name]
}

func (l *ladder) build() error {
	n := float64(len(l.in.items))
	none := l.in.options()
	none.Clipping = cbb.ClipNone
	t0 := time.Now()
	var err error
	if l.plain, err = buildTree(none, l.in.items); err != nil {
		return err
	}
	plainNs := float64(time.Since(t0))
	t0 = time.Now()
	if l.tree, err = buildTree(l.in.options(), l.in.items); err != nil {
		return err
	}
	clipNs := float64(time.Since(t0))
	l.m.set("rtree.bulkload_ns_per_object", plainNs/n)
	l.m.set("clipindex.build_ns_per_object", (clipNs-plainNs)/n)
	st := l.tree.Stats()
	l.m.set("clipindex.clip_points_per_node", st.AvgClipPoints)
	l.m.set("clipindex.table_bytes_per_object", float64(st.ClipTableBytes)/n)

	var buf bytes.Buffer
	if err := l.tree.SaveTo(&buf); err != nil {
		return err
	}
	l.snap = buf.Bytes()
	// The rungs run on a tree restored from the snapshot, like the internal
	// twins below it: a bulk-loaded tree and a decoded one lay their nodes
	// out differently in memory, which alone is worth over a microsecond a
	// query and would be booked as a layer's self time.
	l.tree, err = cbb.Load(bytes.NewReader(l.snap))
	return err
}

// restore decodes the snapshot into internal/rtree and internal/clipindex
// values: the same nodes as l.tree, reachable below the cbb surface.
func (l *ladder) restore() (*rtree.Tree, *clipindex.Index, error) {
	snap, pager, err := snapshot.LoadFrom(bytes.NewReader(l.snap))
	if err != nil {
		return nil, nil, err
	}
	rt, err := snap.LoadTree(pager)
	if err != nil {
		return nil, nil, err
	}
	params, ok := snap.Meta.ClipParams()
	if !ok {
		return nil, nil, fmt.Errorf("snapshot carries no clip table")
	}
	idx, err := clipindex.Restore(rt, params, snap.Table)
	return rt, idx, err
}

// stores is the tree exported in both snapshot formats and reopened three
// ways, each under file-query's budget rule (a quarter of the v2 file).
type stores struct {
	pagerV1, pagerV2 *cbb.Tree   // cbb.OpenReadOnly
	mapped           *rtree.Tree // what cbb.OpenMmap composes, over a tracedStore
	mappedSearch     searchFn    // clipped search over mapped
	pool             *storage.BufferPool
	ms               *storage.MmapStore
}

func (s *stores) close() {
	s.pagerV1.Close()
	s.pagerV2.Close()
	s.ms.Close()
}

// openStores writes the snapshots, opens them and runs each store's cold
// pass, its first touch of its pages; mmap's is a metric.
func (l *ladder) openStores() (*stores, error) {
	tr, n, objects := l.rc.tr, float64(len(l.ops)), float64(len(l.in.items))
	v1Path := filepath.Join(l.rc.dir, "ladder-v1.cbb")
	v2Path := filepath.Join(l.rc.dir, "ladder-v2.cbb")
	if err := l.tree.WriteSnapshot(v1Path, cbb.SnapshotV1); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := l.tree.WriteSnapshot(v2Path, cbb.SnapshotV2); err != nil {
		return nil, err
	}
	l.m.set("snapshot.write_ns_per_object", float64(time.Since(t0))/objects)
	var size [2]int64
	for i, p := range []string{v1Path, v2Path} {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		size[i] = fi.Size()
	}
	l.m.set("snapshot.v1_bytes_per_object", float64(size[0])/objects)
	l.m.set("snapshot.v2_bytes_per_object", float64(size[1])/objects)
	budget := size[1] / 4
	l.m.info["ladder_pool_budget_bytes"] = budget
	if err := l.residency(v2Path, budget); err != nil {
		return nil, err
	}

	s := &stores{pool: storage.NewBufferPoolBytes(budget)}
	var err error
	if s.pagerV1, err = cbb.OpenReadOnly(v1Path); err != nil {
		return nil, err
	}
	if s.pagerV2, err = cbb.OpenReadOnly(v2Path); err != nil {
		return nil, err
	}
	s.pagerV1.AttachBufferPoolBytes(budget)
	s.pagerV2.AttachBufferPoolBytes(budget)
	// mmap with the tracing PageStore between the tree and the mapping: the
	// composition cbb.OpenMmap makes, spelled out so the store can be wrapped.
	if s.ms, err = storage.OpenMmapStore(v2Path); err != nil {
		return nil, err
	}
	snap, err := snapshot.Read(s.ms)
	if err != nil {
		return nil, err
	}
	if s.mapped, err = snap.OpenTree(tracedStore{PageStore: s.ms, tr: tr}, true); err != nil {
		return nil, err
	}
	s.mapped.SetBufferPool(s.pool)
	params, _ := snap.Meta.ClipParams()
	idx, err := clipindex.Restore(s.mapped, params, snap.Table)
	if err != nil {
		return nil, err
	}
	s.mappedSearch = idx.Search

	cold := func(name string, search searchFn) float64 {
		rg, done := l.searchRung(name, search)
		defer done()
		return l.single(rg.name, len(l.ops), rg.op)
	}
	cold("OpenReadOnly v1 cold", s.pagerV1.Search)
	cold("OpenReadOnly v2 cold", s.pagerV2.Search)
	mark := tr.mark()
	l.m.set("storage.mmap_v2_cold_ns", cold("OpenMmap v2 cold", s.mappedSearch))
	pageReads := durations(tr.since(mark), "PageStore.Read")
	l.m.setN("storage.page_read_ns", median(pageReads), len(pageReads))
	l.m.set("storage.page_reads_per_query_cold", float64(len(pageReads))/n)
	return s, nil
}

// serving is the two servers the serving rungs run against, over l.tree:
// coalescing off for the rungs a handler or socket is isolated on, cbbserve's
// defaults for what the coalescer adds.
type serving struct {
	off, deflt       *liveServer
	bodies           [][]byte // /search bodies of the replayed queries
	handled, refused int64    // in-process requests and those not answered 200
}

func (l *ladder) startServing() (*serving, error) {
	eng := tracedEngine{Engine: server.NewTreeEngine(l.tree, false), tr: l.rc.tr}
	sv := &serving{}
	var err error
	if sv.bodies, err = searchBodies(l.ops); err != nil {
		return nil, err
	}
	if sv.off, err = startServer(server.Config{Engine: eng, CoalesceWindow: -1, SearchWorkers: 1}); err != nil {
		return nil, err
	}
	if sv.deflt, err = startServer(serveConfig(eng)); err != nil {
		sv.off.stop()
		return nil, err
	}
	return sv, nil
}

func (sv *serving) stop() {
	sv.off.stop()
	sv.deflt.stop()
}

// handler is an in-process request rung: no socket, the whole handler stack.
func (sv *serving) handler(s *liveServer) func(i int) {
	return func(i int) {
		w := httptest.NewRecorder()
		s.srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(sv.bodies[i])))
		sv.handled++
		if w.Code != http.StatusOK {
			sv.refused++
		}
	}
}

// reads is every read-side rung: it stands up each engine (internal twins,
// sharded tree, the three stores, two servers), replays the range stream
// interleaved across all of them, then runs the rungs nothing is subtracted
// from on their own, and last the ones that mutate what it stood up.
func (l *ladder) reads() error {
	tr, n := l.rc.tr, float64(len(l.ops))
	rt, idx, err := l.restore()
	if err != nil {
		return err
	}
	v, clipped := rt.CurrentVersion(), idx.Snap()
	st, err := cbb.NewSharded(shardedOptions(l.in))
	if err != nil {
		return err
	}
	if err := st.BulkLoad(l.in.items); err != nil {
		return err
	}
	files, err := l.openStores()
	if err != nil {
		return err
	}
	defer files.close()
	sv, err := l.startServing()
	if err != nil {
		return err
	}
	defer sv.stop()

	// The interleaved range replay. The two internal rungs share rt's nodes
	// and charge a counter each, so their node accesses stay apart.
	var plainIO, clipIO storage.Counter
	view, sview := l.tree.Snapshot(), st.Snapshot()
	h0, m0 := files.pool.Stats()
	var rungs []rung
	var checks []func()
	for _, c := range []struct {
		name   string
		search searchFn
	}{
		{"rtree.Version.Search", func(q cbb.Rect, visit func(cbb.ObjectID, cbb.Rect) bool) { v.SearchCounted(q, &plainIO, visit) }},
		{"clipindex.Snap.Search", func(q cbb.Rect, visit func(cbb.ObjectID, cbb.Rect) bool) { clipped.SearchCounted(q, &clipIO, visit) }},
		{"cbb.View.Search", view.Search},
		{"cbb.Tree.Search", l.tree.Search},
		{"cbb.ShardedTree.Search", st.Search},
		{"cbb.ShardedView.Search", sview.Search},
		{"OpenReadOnly v1 warm", files.pagerV1.Search},
		{"OpenReadOnly v2 warm", files.pagerV2.Search},
		{"OpenMmap v2 warm", files.mappedSearch},
	} {
		rg, done := l.searchRung(c.name, c.search)
		rungs, checks = append(rungs, rg), append(checks, done)
	}
	rungs = append(rungs, rung{"Server.ServeHTTP coalescing off", sv.handler(sv.off)})
	ns := l.replay(len(l.ops), rungs)
	for _, done := range checks {
		done()
	}
	view.Close()
	sview.Close()
	h1, m1 := files.pool.Stats()
	for _, t := range []*cbb.Tree{files.pagerV1, files.pagerV2} {
		l.rc.tally.check(t.Err() == nil, "file-backed rung: Tree.Err: %v", t.Err())
	}
	l.rc.tally.check(files.mapped.Err() == nil, "mapped rung: Tree.Err: %v", files.mapped.Err())

	search, clip := ns["rtree.Version.Search"], ns["clipindex.Snap.Search"]
	viewNs, treeNs := ns["cbb.View.Search"], ns["cbb.Tree.Search"]
	direct := ns["Server.ServeHTTP coalescing off"]
	pio, cio := plainIO.Snapshot(), clipIO.Snapshot()
	l.m.set("rtree.search_ns", search)
	l.m.set("rtree.leaf_reads_per_query", float64(pio.LeafReads)/n)
	l.m.set("rtree.dir_reads_per_query", float64(pio.DirReads)/n)
	l.m.set("clipindex.search_ns", clip)
	l.m.set("clipindex.self_ns", clip-search)
	l.m.set("clipindex.leaf_reads_per_query", float64(cio.LeafReads)/n)
	l.m.set("clipindex.dir_reads_per_query", float64(cio.DirReads)/n)
	l.m.set("clipindex.leaf_reads_saved_pct", 100*(1-float64(cio.LeafReads)/float64(max(pio.LeafReads, 1))))
	l.m.set("cbb.view_self_ns", viewNs-clip)
	l.m.set("cbb.tree_self_ns", treeNs-viewNs)
	l.m.set("shard.fanout_self_ns", ns["cbb.ShardedTree.Search"]-treeNs)
	l.m.set("shard.view_self_ns", ns["cbb.ShardedView.Search"]-ns["cbb.ShardedTree.Search"])
	l.m.set("storage.pager_v1_warm_ns", ns["OpenReadOnly v1 warm"])
	l.m.set("storage.pager_v2_warm_ns", ns["OpenReadOnly v2 warm"])
	l.m.set("storage.mmap_v2_warm_ns", ns["OpenMmap v2 warm"])
	l.m.set("storage.pool_hit_rate", float64(h1-h0)/float64(max(h1-h0+m1-m0, 1)))
	l.m.set("server.handler_direct_ns", direct)
	l.m.set("server.handler_self_ns", direct-viewNs)
	l.m.info["ladder_tree_search_p50_us"] = treeNs / 1e3

	// Allocation counts, each on a pass of its own with span recording off.
	tr.enabled.Store(false)
	visit, _ := countVisitor()
	a0, _ := mallocs()
	for _, q := range l.ops {
		v.Search(q, visit)
	}
	direct1 := sv.handler(sv.off)
	a1, b1 := mallocs()
	for i := range l.ops {
		direct1(i)
	}
	a2, b2 := mallocs()
	tr.enabled.Store(true)
	l.m.set("rtree.allocs_per_query", float64(a1-a0)/n)
	l.m.set("server.allocs_per_request", float64(a2-a1)/n)
	l.m.set("server.bytes_per_request", float64(b2-b1)/n)

	// Pairs of rungs measured against each other, interleaved likewise.
	ns = l.replay(len(l.ops), []rung{
		{"cbb.Tree.Snapshot+Close", func(int) { l.tree.Snapshot().Close() }},
		{"cbb.ShardedTree.Snapshot+Close", func(int) { st.Snapshot().Close() }},
	})
	l.m.set("cbb.snapshot_acquire_ns", ns["cbb.Tree.Snapshot+Close"])
	l.m.set("shard.snapshot_acquire_ns", ns["cbb.ShardedTree.Snapshot+Close"])
	ns = l.replay(len(l.pts), []rung{
		{"rtree.Version.NearestNeighbors", func(i int) { v.NearestNeighbors(knnK, l.pts[i]) }},
		{"cbb.ShardedTree.NearestNeighbors", func(i int) { st.NearestNeighbors(knnK, l.pts[i]) }},
	})
	l.m.set("rtree.knn_ns", ns["rtree.Version.NearestNeighbors"])
	l.m.set("shard.knn_ns", ns["cbb.ShardedTree.NearestNeighbors"])
	l.queryDead(rt, clipped)
	if err := l.batchSearch(); err != nil {
		return err
	}

	// From here on what reads stood up is mutated: writes over the socket
	// at the end of the serving rungs, then cross-shard batches.
	if err := l.servingRungs(sv); err != nil {
		return err
	}
	return l.shardWrites(st)
}

// servingRungs is everything measured through a server that nothing in the
// interleaved replay is subtracted from.
func (l *ladder) servingRungs(sv *serving) error {
	tr := l.rc.tr
	// Handler with cbbserve's default coalescing, then one loopback
	// connection with coalescing off, each against the handler rung beside it
	// in the same rounds. The engine decorator's spans nest under the
	// operations of the second replay.
	c := newConn(0, sv.off.url, l.in, sv.bodies, nil)
	defer c.client.CloseIdleConnections()
	ns := l.replay(min(coalescedOps, len(l.ops)), []rung{
		{"Server.ServeHTTP coalescing off", sv.handler(sv.off)},
		{"Server.ServeHTTP default coalescing", sv.handler(sv.deflt)},
	})
	l.m.set("server.coalesce_wait_ns", ns["Server.ServeHTTP default coalescing"]-ns["Server.ServeHTTP coalescing off"])
	mark := tr.mark()
	ns = l.replay(min(loopbackOps, len(l.ops)), []rung{
		{"Server.ServeHTTP coalescing off", sv.handler(sv.off)},
		{"loopback POST /search", func(int) { c.read() }},
	})
	spans := tr.since(mark)
	l.m.set("server.socket_self_ns", ns["loopback POST /search"]-ns["Server.ServeHTTP coalescing off"])
	l.m.set("server.engine_search_ns", median(durations(spans, "ReadView.Search")))
	l.m.set("server.engine_snapshot_ns", median(durations(spans, "Engine.Snapshot")))
	l.m.set("server.outside_engine_ns", median(selfTimes(spans, "loopback POST /search")))

	// Two connections against the default configuration: what the coalescer
	// batches, what admission sheds and what the server's own histogram says.
	burst := []*conn{newConn(0, sv.deflt.url, l.in, sv.bodies, nil), newConn(1, sv.deflt.url, l.in, sv.bodies, nil)}
	var wg sync.WaitGroup
	for _, bc := range burst {
		wg.Add(1)
		go func(bc *conn) {
			defer wg.Done()
			defer bc.client.CloseIdleConnections()
			for i := 0; i < burstPerConn; i++ {
				bc.read()
			}
		}(bc)
	}
	wg.Wait()
	var prom bytes.Buffer
	if err := sv.deflt.srv.Registry().WritePrometheus(&prom); err != nil {
		return err
	}
	side := readProm(prom.String())
	l.m.set("server.coalesce_batch_mean", side.coalescedQueries/max(side.coalescedBatches, 1))
	l.m.set("server.shed_total", side.shed)
	l.m.set("server.side_p50_ns", side.searchP50*1e9)

	// Writes over the socket; these leave one cloned object in l.tree.
	var err error
	if c.batches, err = batchBodies(l.in, 0, loopbackWrites, l.rc.cfg.seed); err != nil {
		return err
	}
	mark = tr.mark()
	l.single("loopback POST /batch", loopbackWrites, func(int) { c.write() })
	l.m.set("server.engine_apply_ns", median(durations(tr.since(mark), "Engine.Apply")))
	l.rc.tally.add(sv.handled, sv.refused, "ladder: %d in-process /search requests were not answered 200", sv.refused)
	for _, x := range append(burst, c) {
		l.rc.tally.add(x.attempted, x.failed, "ladder: %s", x.firstFail)
	}
	return nil
}

// residency measures heap growth against the pool budget through the public
// open, with span recording off so the spans are not counted as heap.
func (l *ladder) residency(path string, budget int64) error {
	l.rc.tr.enabled.Store(false)
	defer l.rc.tr.enabled.Store(true)
	before := heapAlloc()
	t0 := time.Now()
	t, err := cbb.OpenMmap(path)
	if err != nil {
		return err
	}
	l.m.set("snapshot.open_us", float64(time.Since(t0))/1e3)
	t.AttachBufferPoolBytes(budget)
	visit, _ := countVisitor()
	for _, q := range l.ops {
		t.Search(q, visit)
	}
	after := heapAlloc()
	l.m.set("storage.heap_over_budget", (float64(after)-float64(before))/float64(budget))
	return t.Close()
}

// batchSearch is the batch executor over the whole replay, 1 and 2 workers,
// alternating so both see the same host.
func (l *ladder) batchSearch() error {
	var times [2][]time.Duration
	for r := 0; r < batchReps; r++ {
		for w := range times {
			t0 := time.Now()
			res, err := cbb.BatchSearch(l.tree, l.ops, cbb.BatchOptions{Workers: w + 1})
			if err != nil {
				return err
			}
			times[w] = append(times[w], time.Since(t0))
			total := 0
			for _, c := range res.Counts {
				total += c
			}
			l.rc.tally.check(total == l.want, "BatchSearch with %d workers returned %d objects, oracle says %d", w+1, total, l.want)
		}
	}
	one, two := goodEnd(nanos(times[0]), true), goodEnd(nanos(times[1]), true)
	l.m.set("parallel.batch_ns_per_query", one/float64(len(l.ops)))
	l.m.set("parallel.speedup_2w", one/two)
	return nil
}

// queryDead times core.QueryDead alone on node/query pairs sampled from the
// tree's clipped nodes and the replayed queries.
func (l *ladder) queryDead(rt *rtree.Tree, snap *clipindex.Snap) {
	var clips [][]core.ClipPoint
	rt.Walk(func(info rtree.NodeInfo) {
		if c := snap.Clips(info.ID); len(c) > 0 && len(clips) < 4096 {
			clips = append(clips, c)
		}
	})
	if len(clips) == 0 {
		l.m.set("core.query_dead_ns", 0)
		return
	}
	dead := 0
	t0 := time.Now()
	for i := 0; i < queryDeadCalls; i++ {
		if core.QueryDead(clips[i%len(clips)], l.ops[i%len(l.ops)]) {
			dead++
		}
	}
	l.m.set("core.query_dead_ns", float64(time.Since(t0))/queryDeadCalls)
	l.m.info["query_dead_sample_dead_share"] = float64(dead) / queryDeadCalls
}

// shardWrites applies cross-shard batches shaped like shard-mixed's, timing
// Commit alone, then reads the shard directory's state.
func (l *ladder) shardWrites(st *cbb.ShardedTree) error {
	fresh := l.take((shardBatches + 1) * shardBatch)
	var commits []time.Duration
	for b := 0; b < shardBatches; b++ {
		sb, err := st.Begin()
		if err != nil {
			return err
		}
		if err := sb.InsertItems(fresh[(b+1)*shardBatch : (b+2)*shardBatch]); err != nil {
			sb.Rollback()
			return err
		}
		if b > 0 {
			for _, it := range fresh[b*shardBatch : (b+1)*shardBatch] {
				if _, err := sb.Delete(it.Rect, it.Object); err != nil {
					sb.Rollback()
					return err
				}
			}
		}
		t0 := time.Now()
		if err := sb.Commit(); err != nil {
			return err
		}
		commits = append(commits, time.Since(t0))
	}
	l.m.set("shard.batch_commit_ns", medianDur(commits))
	splits, merges := st.RebalanceStats()
	l.m.set("shard.splits", float64(splits))
	l.m.set("shard.merges", float64(merges))
	lens := st.ShardLens()
	longest, total := 0, 0
	for _, n := range lens {
		longest, total = max(longest, n), total+n
	}
	l.m.set("shard.len_max_over_mean", float64(longest)*float64(len(lens))/float64(total))
	l.m.info["ladder_shard_lens"] = lens

	curve, err := hilbert.New(l.in.universe, st.Options().HilbertBits)
	if err != nil {
		return err
	}
	centres := make([]cbb.Point, min(len(l.in.items), 4096))
	for i := range centres {
		centres[i] = l.in.items[i].Rect.Center()
	}
	var sink uint64
	t0 := time.Now()
	for i := 0; i < hilbertCalls; i++ {
		sink += curve.Index(centres[i%len(centres)])
	}
	l.m.set("hilbert.index_ns", float64(time.Since(t0))/hilbertCalls)
	l.m.info["hilbert_checksum"] = sink
	return nil
}

func (l *ladder) join() error {
	partner, err := joinPartner(l.in, l.rc.scaled(joinObjects))
	if err != nil {
		return err
	}
	other, err := buildTree(l.in.options(), partner)
	if err != nil {
		return err
	}
	none := l.in.options()
	none.Clipping = cbb.ClipNone
	plainOther, err := buildTree(none, partner)
	if err != nil {
		return err
	}
	var (
		times []time.Duration
		stt   cbb.JoinResult
	)
	for r := 0; r < batchReps; r++ {
		t0 := time.Now()
		if stt, err = cbb.SynchronizedTreeTraversalJoin(l.tree, other, nil); err != nil {
			return err
		}
		times = append(times, time.Since(t0))
	}
	unclipped, err := cbb.SynchronizedTreeTraversalJoin(l.plain, plainOther, nil)
	if err != nil {
		return err
	}
	t0 := time.Now()
	inlj, err := cbb.IndexNestedLoopJoin(l.tree, partner, nil)
	if err != nil {
		return err
	}
	inljNs := float64(time.Since(t0))
	// The socket rung left one cloned object in l.tree; the partner's boxes
	// may or may not meet it, so the clipped counts are compared with each
	// other and the unclipped twin's only bounds them from below.
	l.rc.tally.check(stt.Pairs == inlj.Pairs && stt.Pairs >= unclipped.Pairs,
		"join pair counts differ: STT %d, unclipped STT %d, INLJ %d", stt.Pairs, unclipped.Pairs, inlj.Pairs)
	l.m.set("join.stt_ns_per_pair", goodEnd(nanos(times), true)/float64(max(stt.Pairs, 1)))
	l.m.set("join.stt_leaf_reads", float64(stt.IO.LeafReads))
	l.m.set("join.stt_leaf_reads_saved_pct", 100*(1-float64(stt.IO.LeafReads)/float64(max(unclipped.IO.LeafReads, 1))))
	l.m.set("join.inlj_ns_per_probe", inljNs/float64(len(partner)))
	l.m.info["ladder_join_pairs"] = stt.Pairs
	return nil
}

// promSide is what the ladder reads from the server's own /metrics text.
type promSide struct {
	coalescedQueries, coalescedBatches, shed float64
	searchP50                                float64 // seconds
}

// readProm picks the serving layer's counters and the median of its /search
// latency histogram out of the Prometheus text exposition.
func readProm(text string) promSide {
	var (
		p       promSide
		les     []float64
		cum     []float64
		total   float64
		prefix  = `cbbserve_request_seconds_bucket{endpoint="/search",le="`
		scanner = bufio.NewScanner(strings.NewReader(text))
	)
	for scanner.Scan() {
		name, val, ok := strings.Cut(scanner.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case name == "cbbserve_coalesce_queries_total":
			p.coalescedQueries = f
		case name == "cbbserve_coalesce_batches_total":
			p.coalescedBatches = f
		case name == "cbbserve_shed_total":
			p.shed = f
		case strings.HasPrefix(name, prefix):
			le := strings.TrimSuffix(strings.TrimPrefix(name, prefix), `"}`)
			if le == "+Inf" {
				total = f
			} else if b, err := strconv.ParseFloat(le, 64); err == nil {
				les, cum = append(les, b), append(cum, f)
			}
		}
	}
	for i, c := range cum {
		if c >= total/2 {
			p.searchP50 = les[i]
			break
		}
	}
	return p
}

// writes is the write-side ladder: ladderCommits commits of 256 fresh
// objects into an in-memory ClipNone twin, an in-memory CSTA tree and a
// file-backed CSTA tree (flushed every commit), the three interleaved commit
// by commit so the differences between them see the same host.
func (l *ladder) writes() error {
	mem, err := cbb.Load(bytes.NewReader(l.snap))
	if err != nil {
		return err
	}
	path := filepath.Join(l.rc.dir, "ladder-write.cbb")
	if err := mem.WriteSnapshot(path, cbb.SnapshotV1); err != nil {
		return err
	}
	file, err := cbb.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()

	type steps struct{ begin, insert, commit, flush []time.Duration }
	trees := []*cbb.Tree{l.plain, mem, file}
	var (
		times [3]steps
		io0   [3]cbb.IOStats
	)
	for k, t := range trees {
		io0[k] = t.IOStats()
	}
	_, w0, _ := file.FileStats()
	for c := 0; c < ladderCommits; c++ {
		for k, t := range trees {
			items := l.take(ingestBatch)
			s := &times[k]
			t0 := time.Now()
			b, err := t.Begin()
			if err != nil {
				return err
			}
			t1 := time.Now()
			if err := b.InsertItems(items); err != nil {
				b.Rollback()
				return err
			}
			t2 := time.Now()
			if err := b.Commit(); err != nil {
				return err
			}
			t3 := time.Now()
			s.begin, s.insert, s.commit = append(s.begin, t1.Sub(t0)), append(s.insert, t2.Sub(t1)), append(s.commit, t3.Sub(t2))
			if t == file {
				if err := file.Flush(); err != nil {
					return err
				}
				s.flush = append(s.flush, time.Since(t3))
			}
		}
	}
	_, w1, _ := file.FileStats()
	l.rc.tally.check(file.Err() == nil, "file-backed write rung: Tree.Err: %v", file.Err())

	const items = ladderCommits * ingestBatch
	perItem := func(k int) float64 { return medianDur(times[k].insert) / ingestBatch }
	l.m.set("rtree.insert_items_ns_per_item", perItem(0))
	l.m.set("rtree.node_writes_per_item", float64(l.plain.IOStats().Writes-io0[0].Writes)/items)
	l.m.set("clipindex.maintain_self_ns_per_item", perItem(1)-perItem(0))
	l.m.set("clipindex.reclips_per_item", float64(mem.IOStats().Reclips-io0[1].Reclips)/items)
	l.m.set("cbb.begin_ns", medianDur(times[1].begin))
	l.m.set("cbb.commit_ns", medianDur(times[1].commit))
	l.m.set("storage.filebacked_self_ns_per_item", perItem(2)-perItem(1))
	l.m.set("storage.flush_ns", medianDur(times[2].flush))
	l.m.set("storage.pages_written_per_commit", float64(w1-w0)/ladderCommits)
	opts := file.Options()
	pageBytes := float64(snapshot.PageSizeFor(opts.MaxEntries, opts.Dims))
	// 40 B is one 2-D object as the user handed it over: four float64 + id.
	l.m.set("storage.write_amp", float64(w1-w0)*pageBytes/(40*items))
	return file.Close()
}
