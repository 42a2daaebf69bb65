package server

import (
	"context"
	"slices"
	"sync"
	"time"

	"cbb"
	"cbb/internal/telemetry"
)

// coalescer batches concurrent point searches out of concurrency, never out
// of a clock (the writer-queue group commit of LevelDB's DBImpl::Write):
// a search that finds no flush running is answered at once, alone, on its own
// handler goroutine; searches that arrive while a flush runs queue behind it
// and are answered together — up to max per batch, FIFO, one BatchSearch on
// one pinned view — as soon as it ends. A search therefore waits for at most
// the flush it found running plus its own while the queue is within max, and
// a lone client never waits at all.
//
// No goroutine is started and no timer armed: a batch is flushed by the
// handler goroutine of its first member, which then hands the next batch to
// that batch's first member. The view is pinned after the batch has left the
// queue, i.e. after every member arrived, so a sequential client's epochs
// never go back, and a batch can never mix epochs.
type coalescer struct {
	eng     Engine
	max     int
	workers int

	mu    sync.Mutex
	busy  bool             // a flush is running, or a batch is on its way to its leader
	queue []*pendingSearch // arrived while busy, FIFO

	// telemetry
	batches   *telemetry.Counter
	coalesced *telemetry.Counter
	batchSize *telemetry.Histogram
	wait      *telemetry.Histogram // enqueue → start of the answering flush, ns
}

// pendingSearch is one queued point query.
type pendingSearch struct {
	ctx       context.Context
	q         cbb.Rect
	wantItems bool
	enqueued  time.Time // read only for the wait histogram

	// wake receives exactly once after the member has left the queue: the
	// batch it is to flush itself, as its first member, or nil once out holds
	// its answer. Buffered so the sender never waits for a member.
	wake chan []*pendingSearch
	out  searchOutcome
}

// searchOutcome is the answer to one /search: the items only when the
// request asked for them.
type searchOutcome struct {
	epochs  []uint64
	count   int
	items   []cbb.Item
	batched int
	err     error
}

// searchAlone answers one query from a view pinned for it: the uncoalesced
// path, and a search that finds the coalescer idle.
func searchAlone(eng Engine, q cbb.Rect, wantItems bool) searchOutcome {
	view := eng.Snapshot()
	defer view.Close()
	var items []cbb.Item
	n := 0
	if wantItems {
		items = make([]cbb.Item, 0, 16)
		view.Search(q, func(id cbb.ObjectID, rect cbb.Rect) bool {
			items = append(items, cbb.Item{Object: id, Rect: rect})
			return true
		})
		n = len(items)
	} else {
		view.Search(q, func(cbb.ObjectID, cbb.Rect) bool { n++; return true })
	}
	return searchOutcome{epochs: view.Epochs(), count: n, items: items, batched: 1}
}

// submit answers one query, alone if the coalescer is idle and with its
// batch otherwise. A queued query whose ctx ends first leaves the queue.
func (c *coalescer) submit(ctx context.Context, q cbb.Rect, wantItems bool) searchOutcome {
	c.mu.Lock()
	if !c.busy {
		c.busy = true
		c.mu.Unlock()
		defer c.handOff()
		if err := ctx.Err(); err != nil {
			return searchOutcome{err: err}
		}
		c.wait.Observe(0)
		c.observeBatch(1)
		return searchAlone(c.eng, q, wantItems)
	}
	p := &pendingSearch{ctx: ctx, q: q, wantItems: wantItems, enqueued: time.Now(), wake: make(chan []*pendingSearch, 1)}
	c.queue = append(c.queue, p)
	c.mu.Unlock()

	var lead []*pendingSearch
	select {
	case lead = <-p.wake:
	case <-ctx.Done():
		if c.abandon(p) {
			return searchOutcome{err: ctx.Err()}
		}
		lead = <-p.wake // already in a batch: its signal is on the way
	}
	if lead != nil {
		defer c.handOff()
		c.flush(p, lead)
	}
	return p.out
}

// abandon takes p off the queue; false means a batch has it already.
func (c *coalescer) abandon(p *pendingSearch) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.Index(c.queue, p)
	if i < 0 {
		return false
	}
	c.queue = slices.Delete(c.queue, i, i+1)
	return true
}

// handOff ends a flush: the head of the queue, up to max members, becomes
// the next batch and goes to its first member to flush; with nothing queued
// the coalescer goes idle.
func (c *coalescer) handOff() {
	c.mu.Lock()
	n := min(len(c.queue), c.max)
	if n == 0 {
		c.busy = false
		c.mu.Unlock()
		return
	}
	batch := c.queue[:n:n]
	c.queue = c.queue[n:]
	c.mu.Unlock()
	batch[0].wake <- batch
}

// idle reports whether no flush is running and nothing is queued.
func (c *coalescer) idle() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.busy
}

func (c *coalescer) observeBatch(n int) {
	c.batches.Inc()
	c.coalesced.Add(int64(n))
	c.batchSize.Observe(int64(n))
}

// flush answers one batch from one pinned view, on its leader's goroutine.
// Members whose client has gone are not searched for; they report their
// ctx's error like any canceled request.
func (c *coalescer) flush(leader *pendingSearch, batch []*pendingSearch) {
	answer := func(p *pendingSearch, out searchOutcome) {
		p.out = out
		if p != leader {
			p.wake <- nil
		}
	}
	start := time.Now()
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			answer(p, searchOutcome{err: err})
			continue
		}
		c.wait.Observe(start.Sub(p.enqueued).Nanoseconds())
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	c.observeBatch(len(live))

	queries := make([]cbb.Rect, len(live))
	collect := false
	for i, p := range live {
		queries[i] = p.q
		collect = collect || p.wantItems
	}
	view := c.eng.Snapshot()
	defer view.Close()
	res, err := view.BatchSearch(queries, cbb.BatchOptions{Collect: collect, Workers: c.workers})
	epochs := view.Epochs()
	for i, p := range live {
		out := searchOutcome{err: err}
		if err == nil {
			out = searchOutcome{epochs: epochs, count: res.Counts[i], batched: len(live)}
			if p.wantItems {
				out.items = res.Items[i]
			}
		}
		answer(p, out)
	}
}
