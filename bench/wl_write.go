package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"cbb"
)

// Both workloads here mutate state, so their window is a fixed amount of
// writer work derived from -seconds (so many writes per second of window)
// rather than a deadline: both sides of a comparison end in the same state
// and page and byte counts repeat exactly. The reader beside the writer runs
// until the writer is done.

// writerWindow runs writer for `writes` acknowledged writes while a reader
// loops on the range stream beside it, and files the read and write metrics.
func writerWindow(rc *runCtx, m *measurements, in *inputs, search searchFn, readName, writeName string,
	writes, itemsPerWrite, maxExtra int, write func(i int)) {
	var (
		done atomic.Bool
		bad  int64
	)
	start := time.Now()
	rr := newRecorder(start, recCap(rc.window(1)))
	wr := newRecorder(start, writes)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		// Beside a writer a count is right when nothing indexed before the
		// window went missing and no more than the writer's objects appeared.
		ok := func(got, want int) bool { return got >= want && got <= want+maxExtra }
		rr.runUntil(rc.tr, readName, &done, in.rangeOp(search, &bad, ok))
	}()
	wr.runCount(rc.tr, writeName, writes, write)
	done.Store(true)
	<-finished

	rc.tally.add(int64(len(rr.lat)), bad,
		"%d timed range queries beside the writer fell outside [oracle, oracle+%d]", bad, maxExtra)
	m.reads(summarize(timeSlices(fineSlices, rr)))
	m.writes(summarize(timeSlices(fineSlices, wr)), itemsPerWrite)
}

// --- ingest-durable -------------------------------------------------------------

const (
	ingestObjects       = 200000
	ingestBatch         = 256
	ingestCommitsPerSec = 35 // window = seconds × this many commits (≈ 25 ms each beside the reader when defined)
	ingestWarmupCommits = 3
	flushPolicy         = "every commit flushed: Begin, InsertItems, Commit, then Flush = WAL write + fsync + apply"
)

type ingestDurable struct {
	setupState
	path    string
	tree    *cbb.Tree
	commits int // window length in commits
	next    int // next unused index into in.fresh
	werr    error
}

func setupIngestDurable(rc *runCtx) (instance, error) {
	w := &ingestDurable{path: filepath.Join(rc.dir, "ingest-durable.cbb")}
	w.commits = max(10, int(rc.cfg.seconds*ingestCommitsPerSec))
	var err error
	fresh := (w.commits + ingestWarmupCommits) * ingestBatch
	if rc.tr != nil {
		fresh *= 2 // the traced run measures twice
	}
	if w.in, err = genInputs("rea02", rc.scaled(ingestObjects), fresh, rc.cfg.seed); err != nil {
		return nil, err
	}
	w.offTheClock(func() {
		err = w.in.expectCounts(rc)
		w.heapBase = heapAlloc()
	})
	if err != nil {
		return nil, err
	}

	// Create truncates a previous set-up's file and drops its write-ahead log.
	if w.tree, err = cbb.Create(w.path, w.in.options()); err != nil {
		return nil, err
	}
	if err := w.tree.BulkLoad(w.in.items); err != nil {
		return nil, err
	}
	if err := w.tree.Flush(); err != nil {
		return nil, err
	}
	w.tree.ResetIOStats()
	w.in.passChecked(rc.tally, "warm-up pass", w.tree.Search)
	w.leafReads = float64(w.tree.IOStats().LeafReads) / float64(len(w.in.ranges))
	for i := 0; i < ingestWarmupCommits; i++ {
		w.commit(i)
	}
	return w, w.werr
}

// commit is one acknowledged durable write. The first error sticks and fails
// every later commit's check.
func (w *ingestDurable) commit(int) {
	items := w.in.fresh[w.next : w.next+ingestBatch]
	w.next += ingestBatch
	b, err := w.tree.Begin()
	if err == nil {
		if err = b.InsertItems(items); err != nil {
			b.Rollback()
		} else if err = b.Commit(); err == nil {
			err = w.tree.Flush()
		}
	}
	if err != nil && w.werr == nil {
		w.werr = fmt.Errorf("durable commit: %w", err)
	}
}

func (w *ingestDurable) objects() int { return w.tree.Len() }

func (w *ingestDurable) readOp() (string, func(i int)) {
	return "Tree.Search", w.in.rangeOp(w.tree.Search, &w.replayBad, atLeast)
}

func (w *ingestDurable) measure(rc *runCtx, m *measurements) error {
	writerWindow(rc, m, w.in, w.tree.Search, "Tree.Search", "durable commit",
		w.commits, ingestBatch, len(w.in.fresh), w.commit)
	rc.tally.add(int64(w.commits), 0, "")
	fi, err := os.Stat(w.path)
	if err != nil {
		return err
	}
	m.set("file_bytes_per_object", float64(fi.Size())/float64(w.tree.Len()))
	m.info["file_bytes"] = fi.Size()
	m.info["flush_policy"] = flushPolicy
	return nil
}

func (w *ingestDurable) verify(rc *runCtx, m *measurements) error {
	rc.tally.check(w.replayBad == 0, "%d replayed range queries lost objects the oracle expects", w.replayBad)
	rc.tally.check(w.werr == nil, "%v", w.werr)
	rc.tally.check(w.tree.Err() == nil, "Tree.Err after the durable phase: %v", w.tree.Err())
	want := len(w.in.items) + w.next
	if err := w.close(); err != nil {
		return err
	}
	// Durability as a user would test it: reopen from the file alone.
	re, err := cbb.OpenReadOnly(w.path)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer re.Close()
	verr := re.Validate()
	rc.tally.check(verr == nil, "Validate after reopen: %v", verr)
	rc.tally.check(re.Len() == want, "Len after reopen is %d, want %d acknowledged objects", re.Len(), want)
	// A sample of acknowledged ids, spread over every commit.
	for i := 0; i < w.next; i += ingestBatch/4 + 1 {
		it := w.in.fresh[i]
		found := false
		re.Search(it.Rect, func(id cbb.ObjectID, _ cbb.Rect) bool {
			found = id == it.Object
			return !found
		})
		rc.tally.check(found, "acknowledged object %d is missing after reopen", it.Object)
	}
	rc.tally.check(re.Err() == nil, "Tree.Err after reopen: %v", re.Err())
	return nil
}

func (w *ingestDurable) close() error {
	if w.tree == nil {
		return nil
	}
	err := w.tree.Close()
	w.tree = nil
	return err
}

// --- shard-mixed ----------------------------------------------------------------

const (
	shardObjects       = 200000
	shardCount         = 4
	shardBatch         = 32  // inserts per batch; as many deletes ride along
	shardBatchesPerSec = 600 // window = seconds × this many batches (≈ 1.4 ms each beside the reader when defined)
	shardWarmupBatches = 50
)

// shardedOptions is the sharded engine of shard-mixed (and of the ladder's
// sharded rungs): four shards, a split threshold one below the mean shard
// size so the set-up load always splits at least one shard of the skewed
// data, and a merge threshold low enough to stay quiet afterwards.
func shardedOptions(in *inputs) cbb.ShardedOptions {
	n := len(in.items)
	return cbb.ShardedOptions{
		Options:    in.options(),
		Shards:     shardCount,
		SplitAbove: n/shardCount - 1,
		MergeBelow: n / (16 * shardCount),
	}
}

type shardMixed struct {
	setupState
	st      *cbb.ShardedTree
	batches int
	next    int // next unused index into in.fresh
	werr    error
}

func setupShardMixed(rc *runCtx) (instance, error) {
	w := &shardMixed{batches: max(50, int(rc.cfg.seconds*shardBatchesPerSec))}
	fresh := (w.batches + shardWarmupBatches) * shardBatch
	if rc.tr != nil {
		fresh *= 2
	}
	var err error
	if w.in, err = genInputs("hot02", rc.scaled(shardObjects), fresh, rc.cfg.seed); err != nil {
		return nil, err
	}
	w.offTheClock(func() {
		err = w.in.expectCounts(rc)
		w.heapBase = heapAlloc()
	})
	if err != nil {
		return nil, err
	}
	if w.st, err = cbb.NewSharded(shardedOptions(w.in)); err != nil {
		return nil, err
	}
	if err := w.st.BulkLoad(w.in.items); err != nil {
		return nil, err
	}
	w.st.ResetIOStats()
	w.in.passChecked(rc.tally, "warm-up pass", w.st.Search)
	w.leafReads = float64(w.st.IOStats().LeafReads) / float64(len(w.in.ranges))
	// Warm-up writes also let any split the bulk load left pending happen
	// before the window.
	for i := 0; i < shardWarmupBatches; i++ {
		w.batch(i)
	}
	return w, w.werr
}

// batch is one cross-shard atomic write: insert shardBatch fresh objects and
// delete the ones the previous batch inserted.
func (w *shardMixed) batch(int) {
	ins := w.in.fresh[w.next : w.next+shardBatch]
	prev := w.in.fresh[max(0, w.next-shardBatch):w.next]
	w.next += shardBatch
	err := func() error {
		b, err := w.st.Begin()
		if err != nil {
			return err
		}
		if err := b.InsertItems(ins); err != nil {
			b.Rollback()
			return err
		}
		for _, it := range prev {
			found, err := b.Delete(it.Rect, it.Object)
			if err == nil && !found {
				err = fmt.Errorf("object %d of the previous batch not found", it.Object)
			}
			if err != nil {
				b.Rollback()
				return err
			}
		}
		return b.Commit()
	}()
	if err != nil && w.werr == nil {
		w.werr = fmt.Errorf("cross-shard batch: %w", err)
	}
}

func (w *shardMixed) objects() int { return w.st.Len() }

func (w *shardMixed) readOp() (string, func(i int)) {
	return "ShardedTree.Search", w.in.rangeOp(w.st.Search, &w.replayBad, atLeast)
}

func (w *shardMixed) measure(rc *runCtx, m *measurements) error {
	// An unpinned ShardedTree.Search may see two batches' objects at once.
	writerWindow(rc, m, w.in, w.st.Search, "ShardedTree.Search", "cross-shard batch",
		w.batches, 2*shardBatch, 2*shardBatch, w.batch)
	rc.tally.add(int64(w.batches), 0, "")
	splits, merges := w.st.RebalanceStats()
	m.info["shard_lens"] = w.st.ShardLens()
	m.info["shard_splits"] = splits
	m.info["shard_merges"] = merges
	return nil
}

func (w *shardMixed) verify(rc *runCtx, m *measurements) error {
	rc.tally.check(w.replayBad == 0, "%d replayed range queries lost objects the oracle expects", w.replayBad)
	rc.tally.check(w.werr == nil, "%v", w.werr)
	verr := w.st.Validate()
	rc.tally.check(verr == nil, "Validate: %v", verr)
	want := len(w.in.items) + shardBatch
	rc.tally.check(w.st.Len() == want, "final Len() is %d, want %d", w.st.Len(), want)
	splits, _ := w.st.RebalanceStats()
	rc.tally.check(splits >= 1, "the skewed load split no shard")
	return nil
}

func (w *shardMixed) close() error { return nil }
