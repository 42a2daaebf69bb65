package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cbb"
)

// searchFn is the range-query entry point of whichever engine a workload
// drives (Tree.Search, ShardedTree.Search, ...).
type searchFn func(q cbb.Rect, visit func(cbb.ObjectID, cbb.Rect) bool)

// rangeOp is the body of a timed range loop: query i of the cycling stream,
// its result count held against the oracle by ok (equality on a static
// index, a lower bound beside a writer). bad counts rejections.
func (in *inputs) rangeOp(search searchFn, bad *int64, ok func(got, want int) bool) func(i int) {
	visit, n := countVisitor()
	return func(i int) {
		k := i % len(in.ranges)
		*n = 0
		search(in.ranges[k], visit)
		if !ok(*n, int(in.want[k])) {
			*bad++
		}
	}
}

func exact(got, want int) bool { return got == want }

// atLeast holds after a writer has added objects: none the oracle knows of
// may be missing.
func atLeast(got, want int) bool { return got >= want }

// recCap sizes a recorder for a phase of d at up to one operation per µs;
// append grows it if a future engine is faster than that.
func recCap(d time.Duration) int { return int(d/time.Microsecond) + 1024 }

// phase runs op back to back for d, one phase's turn in one round, and
// returns the samples as roundSlices sub-windows. pos is the phase's position
// in its cycling stream, carried from round to round.
func phase(rc *runCtx, name string, d time.Duration, pos *int, op func(i int)) []subWindow {
	r := newRecorder(time.Now(), recCap(d))
	r.runFor(rc.tr, name, d, func(i int) { op(*pos + i) })
	*pos += len(r.lat)
	return timeSlices(roundSlices, r)
}

// queryRounds is the measured window mem-query and file-query share. The
// window is maxSubWindows rounds and every round runs every phase for its
// share of the round, so each metric samples the whole window and a slow
// stretch of the host costs every metric a round or two, never one metric
// its whole phase. extra, when not nil, runs at the end of each round with
// the time the round has left for it.
func queryRounds(rc *runCtx, m *measurements, in *inputs, t *cbb.Tree, rangeShare, knnShare float64, extra func(d time.Duration)) {
	var (
		ranges, knns   []subWindow
		rangeAt, knnAt int
		bad, short     int64
	)
	search := in.rangeOp(t.Search, &bad, exact)
	nearest := func(i int) {
		if len(t.NearestNeighbors(knnK, in.knn[i%len(in.knn)])) != knnK {
			short++
		}
	}
	for round := 0; round < maxSubWindows; round++ {
		ranges = append(ranges, phase(rc, "Tree.Search", rc.window(rangeShare/maxSubWindows), &rangeAt, search)...)
		knns = append(knns, phase(rc, "Tree.NearestNeighbors", rc.window(knnShare/maxSubWindows), &knnAt, nearest)...)
		if extra != nil {
			extra(rc.window((1 - rangeShare - knnShare) / maxSubWindows))
		}
	}
	rc.tally.add(int64(rangeAt+knnAt), bad+short,
		"%d timed range queries disagreed with the oracle, %d kNN answers were short", bad, short)
	m.reads(summarize(ranges))
	ks := summarize(knns)
	m.setN("knn_p50_us", ks.p50/1e3, ks.n)
	m.info["knn_seconds"] = ks.seconds
	m.info["rounds"] = maxSubWindows
}

// --- mem-query ------------------------------------------------------------------

const (
	memObjects  = 500000
	joinObjects = 20000 // the join's second tree
)

type memQuery struct {
	setupState
	tree    *cbb.Tree
	partner []cbb.Item // par02, the join's second input
	other   *cbb.Tree  // partner, indexed
	pairs   int64      // STT pair count the oracle accepted in set-up
}

func setupMemQuery(rc *runCtx) (instance, error) {
	w := &memQuery{}
	var err error
	if w.in, err = genInputs("rea02", rc.scaled(memObjects), 0, rc.cfg.seed); err != nil {
		return nil, err
	}
	if w.partner, err = joinPartner(w.in, rc.scaled(joinObjects)); err != nil {
		return nil, err
	}
	w.offTheClock(func() {
		err = w.in.expectCounts(rc)
		w.heapBase = heapAlloc()
	})
	if err != nil {
		return nil, err
	}
	if w.tree, err = buildTree(w.in.options(), w.in.items); err != nil {
		return nil, err
	}
	if w.other, err = buildTree(w.in.options(), w.partner); err != nil {
		return nil, err
	}

	// Warm-up: one full pass of every stream. The range pass doubles as the
	// single-threaded pass leaf_reads_per_query is defined over.
	w.tree.ResetIOStats()
	w.in.passChecked(rc.tally, "warm-up pass", w.tree.Search)
	w.leafReads = float64(w.tree.IOStats().LeafReads) / float64(len(w.in.ranges))
	for _, p := range w.in.knn {
		w.tree.NearestNeighbors(knnK, p)
	}
	stt, err := w.join()
	if err != nil {
		return nil, err
	}
	w.pairs = stt.Pairs
	if !rc.oracleDone {
		w.offTheClock(func() {
			w.in.checkKNN(rc, w.tree.NearestNeighbors)
			inlj, err := cbb.IndexNestedLoopJoin(w.tree, w.partner, nil)
			rc.tally.check(err == nil && inlj.Pairs == stt.Pairs, "join oracle: STT found %d pairs, INLJ %d (err %v)", stt.Pairs, inlj.Pairs, err)
		})
	}
	return w, nil
}

func (w *memQuery) join() (cbb.JoinResult, error) {
	return cbb.SynchronizedTreeTraversalJoinWith(w.tree, w.other, cbb.JoinOptions{Workers: 1}, nil)
}

func (w *memQuery) objects() int { return w.tree.Len() }

func (w *memQuery) readOp() (string, func(i int)) {
	return "Tree.Search", w.in.rangeOp(w.tree.Search, &w.replayBad, exact)
}

func (w *memQuery) measure(rc *runCtx, m *measurements) error {
	// Whole joins close every round: at least one, more while the round's
	// join share lasts, so at least maxSubWindows repetitions in all.
	var times []time.Duration
	queryRounds(rc, m, w.in, w.tree, 0.6, 0.2, func(d time.Duration) {
		deadline := time.Now().Add(d)
		for first := true; first || time.Now().Before(deadline); first = false {
			t0 := time.Now()
			res, err := w.join()
			times = append(times, time.Since(t0))
			rc.tally.check(err == nil && res.Pairs == w.pairs, "timed STT join returned %d pairs (err %v), set-up join %d", res.Pairs, err, w.pairs)
		}
	})
	m.setN("join_ms", goodEnd(nanos(times), true)/1e6, len(times))
	m.info["join_pairs"] = w.pairs
	m.info["join_partner_objects"] = w.other.Len()
	return nil
}

func (w *memQuery) verify(rc *runCtx, m *measurements) error {
	rc.tally.check(w.replayBad == 0, "%d replayed range queries disagreed with the oracle", w.replayBad)
	w.in.passChecked(rc.tally, "after-window pass", w.tree.Search)
	return nil
}

func (w *memQuery) close() error { return nil }

// --- file-query -----------------------------------------------------------------

const fileObjects = 300000

type fileQuery struct {
	setupState
	tree      *cbb.Tree // OpenMmap over the v2 snapshot
	fileBytes int64
	poolBytes int64
}

func setupFileQuery(rc *runCtx) (instance, error) {
	w := &fileQuery{}
	var err error
	if w.in, err = genInputs("axo03", rc.scaled(fileObjects), 0, rc.cfg.seed); err != nil {
		return nil, err
	}
	w.offTheClock(func() {
		err = w.in.expectCounts(rc)
		w.heapBase = heapAlloc()
	})
	if err != nil {
		return nil, err
	}

	// Build clipped in memory, export as v2, drop the build, reopen mapped.
	built, err := buildTree(w.in.options(), w.in.items)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(rc.dir, "file-query.cbb")
	if err := built.WriteSnapshot(path, cbb.SnapshotV2); err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	w.fileBytes = fi.Size()
	if w.tree, err = cbb.OpenMmap(path); err != nil {
		return nil, err
	}
	// A quarter of the file: the index is larger than the program's own
	// cache budget. (The pool only accounts today; heap_bytes_per_object
	// shows what is really resident.)
	w.poolBytes = w.fileBytes / 4
	w.tree.AttachBufferPoolBytes(w.poolBytes)

	// Cold pass: the first touch of every page the stream needs. It is part
	// of set-up, the warm-up pass, and the pass leaf reads are counted over
	// (the traced run times it: storage.mmap_v2_cold_ns).
	w.tree.ResetIOStats()
	w.in.passChecked(rc.tally, "cold pass", w.tree.Search)
	w.leafReads = float64(w.tree.IOStats().LeafReads) / float64(len(w.in.ranges))
	for _, p := range w.in.knn {
		w.tree.NearestNeighbors(knnK, p)
	}
	if !rc.oracleDone {
		w.offTheClock(func() { w.in.checkKNN(rc, w.tree.NearestNeighbors) })
	}
	return w, nil
}

func (w *fileQuery) objects() int { return w.tree.Len() }

func (w *fileQuery) readOp() (string, func(i int)) {
	return "Tree.Search", w.in.rangeOp(w.tree.Search, &w.replayBad, exact)
}

func (w *fileQuery) measure(rc *runCtx, m *measurements) error {
	queryRounds(rc, m, w.in, w.tree, 0.75, 0.25, nil)
	m.set("file_bytes_per_object", float64(w.fileBytes)/float64(w.tree.Len()))
	m.info["file_bytes"] = w.fileBytes
	m.info["pool_budget_bytes"] = w.poolBytes
	if bs, ok := w.tree.BufferStats(); ok {
		m.info["pool_hit_rate"] = bs.HitRate()
	}
	return nil
}

func (w *fileQuery) verify(rc *runCtx, m *measurements) error {
	rc.tally.check(w.replayBad == 0, "%d replayed range queries disagreed with the oracle", w.replayBad)
	w.in.passChecked(rc.tally, "after-window pass", w.tree.Search)
	rc.tally.check(w.tree.Err() == nil, "Tree.Err after the mapped phase: %v", w.tree.Err())
	return nil
}

func (w *fileQuery) close() error {
	if w.tree == nil {
		return nil
	}
	err := w.tree.Close()
	w.tree = nil
	if err != nil {
		return fmt.Errorf("close mapped tree: %w", err)
	}
	return nil
}
