package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbb"
)

// gatedEngine is a real engine whose Snapshot the test can hold: a call
// announces itself on entered, then waits at gate. It logs what every pinned
// view was asked, in pin order, with the answer that view gives — the oracle
// for a reply computed at that epoch.
type gatedEngine struct {
	Engine
	entered chan struct{} // nil, or one send per Snapshot before it waits
	gate    chan struct{} // closed: open for good

	mu             sync.Mutex
	pins           []*pin
	asked          map[string]ask // by rectKey of the query
	closed         bool
	pinsAfterClose int
}

// pin is one pinned view: its epoch vector and the queries put to it.
type pin struct {
	epochs  []uint64
	queries []cbb.Rect
}

// ask is one logged query: the view that answered it and that view's count.
type ask struct {
	pin   *pin
	count int
}

func rectKey(q cbb.Rect) string { return fmt.Sprint(q.Lo, q.Hi) }

// newGatedEngine wraps a tree engine; held makes the first Snapshot (and all
// after it) wait until the test closes gate.
func newGatedEngine(tree *cbb.Tree, held bool) *gatedEngine {
	g := &gatedEngine{Engine: NewTreeEngine(tree, false), gate: make(chan struct{}), asked: map[string]ask{}}
	if held {
		g.entered = make(chan struct{}, 64) // more than any test here pins
	} else {
		close(g.gate)
	}
	return g
}

func (g *gatedEngine) Snapshot() ReadView {
	if g.entered != nil {
		g.entered <- struct{}{}
	}
	<-g.gate
	runtime.Gosched() // lets others arrive behind this flush even on one core
	v := g.Engine.Snapshot()
	p := &pin{epochs: v.Epochs()}
	g.mu.Lock()
	if g.closed {
		g.pinsAfterClose++
	}
	g.pins = append(g.pins, p)
	g.mu.Unlock()
	return loggedView{ReadView: v, g: g, pin: p}
}

func (g *gatedEngine) Close() error {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	return g.Engine.Close()
}

type loggedView struct {
	ReadView
	g   *gatedEngine
	pin *pin
}

func (v loggedView) log(queries ...cbb.Rect) {
	for _, q := range queries {
		n := v.ReadView.Count(q)
		v.g.mu.Lock()
		v.pin.queries = append(v.pin.queries, q)
		v.g.asked[rectKey(q)] = ask{pin: v.pin, count: n}
		v.g.mu.Unlock()
	}
}

func (v loggedView) Search(q cbb.Rect, visit func(cbb.ObjectID, cbb.Rect) bool) {
	v.log(q)
	v.ReadView.Search(q, visit)
}

func (v loggedView) BatchSearch(queries []cbb.Rect, opts cbb.BatchOptions) (cbb.BatchResult, error) {
	v.log(queries...)
	return v.ReadView.BatchSearch(queries, opts)
}

// pinned returns the queries of every pinned view so far, in pin order.
func (g *gatedEngine) pinned() [][]cbb.Rect {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([][]cbb.Rect, len(g.pins))
	for i, p := range g.pins {
		out[i] = p.queries
	}
	return out
}

// searchCall is one in-process /search running on a goroutine of its own.
type searchCall struct {
	done chan struct{}
	code int
	resp SearchResponse
}

func startSearch(ctx context.Context, s *Server, q cbb.Rect, countOnly bool) *searchCall {
	c := &searchCall{done: make(chan struct{})}
	body, _ := json.Marshal(SearchRequest{Query: FromRect(q), CountOnly: countOnly})
	go func() {
		defer close(c.done)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)).WithContext(ctx))
		c.code = w.Code
		if w.Code == http.StatusOK {
			_ = json.Unmarshal(w.Body.Bytes(), &c.resp) // a bad body fails the caller's checks
		}
	}()
	return c
}

// awaitQueued waits until n searches sit in the coalescer's queue.
func awaitQueued(t *testing.T, c *coalescer, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		got := len(c.queue)
		c.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("coalescer queue holds %d searches, want %d", got, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// distinctQueries returns n windows no two of which are equal, so a logged
// query identifies its request.
func distinctQueries(n int) []cbb.Rect {
	out := make([]cbb.Rect, n)
	for i := range out {
		lo := float64(3 * i)
		out[i] = cbb.R(lo, lo, lo+20, lo+20)
	}
	return out
}

// TestCoalescing pins down how batches form. With the first search held in
// its flush, 2·max+3 followers queue up one by one; once it is released they
// must be answered as batches of exactly max, max and 3, in arrival order,
// with every reply's batched field, the counters and the direct path's
// results in agreement. Followers alternate count-only and item-returning,
// so every batch is a mixed one.
func TestCoalescing(t *testing.T) {
	const max = 4
	tree := buildTree(t, 2000)
	eng := newGatedEngine(tree, true)
	s := newTestServer(t, Config{Engine: eng, CoalesceMaxBatch: max})
	queries := distinctQueries(1 + 2*max + 3)

	calls := make([]*searchCall, len(queries))
	countOnly := func(i int) bool { return i%2 == 0 }
	calls[0] = startSearch(context.Background(), s, queries[0], countOnly(0))
	<-eng.entered // flush 1 is running
	for i := 1; i < len(queries); i++ {
		calls[i] = startSearch(context.Background(), s, queries[i], countOnly(i))
		awaitQueued(t, s.coal, i)
	}
	close(eng.gate)

	wantBatch := func(i int) (batch, size int) {
		switch {
		case i == 0:
			return 0, 1
		case i <= max:
			return 1, max
		case i <= 2*max:
			return 2, max
		}
		return 3, 3
	}
	for i, c := range calls {
		<-c.done
		if c.code != http.StatusOK {
			t.Fatalf("search %d: code %d", i, c.code)
		}
		want := tree.Count(queries[i])
		_, size := wantBatch(i)
		if c.resp.Count != want || c.resp.Batched != size || len(c.resp.Epochs) != 1 {
			t.Errorf("search %d: count %d batched %d epochs %v, want count %d batched %d and one epoch",
				i, c.resp.Count, c.resp.Batched, c.resp.Epochs, want, size)
		}
		wantItems := want
		if countOnly(i) {
			wantItems = 0
		}
		if len(c.resp.Items) != wantItems {
			t.Errorf("search %d (count-only: %v): %d items, want %d", i, countOnly(i), len(c.resp.Items), wantItems)
		}
	}

	pinned := eng.pinned()
	if len(pinned) != 4 {
		t.Fatalf("%d views were pinned, want 4 (batches of 1, %d, %d, 3)", len(pinned), max, max)
	}
	next := 0
	for b, got := range pinned {
		for _, q := range got {
			if wb, _ := wantBatch(next); wb != b || rectKey(q) != rectKey(queries[next]) {
				t.Fatalf("batch %d holds %v; search %d (%v) was due next, in batch %d", b, got, next, queries[next], wb)
			}
			next++
		}
	}
	if next != len(queries) {
		t.Errorf("%d searches reached the engine, want %d", next, len(queries))
	}

	var st StatsResponse
	get(t, s, "/stats", &st)
	if st.Server.Batches != 4 || st.Server.Coalesced != int64(len(queries)) {
		t.Errorf("/stats: %d batches, %d coalesced queries, want 4 and %d", st.Server.Batches, st.Server.Coalesced, len(queries))
	}
	// All but the first search queued behind a held flush.
	if st.Server.CoalesceWaitP50 <= 0 {
		t.Errorf("/stats: coalesce_wait_p50_ns = %d, want > 0", st.Server.CoalesceWaitP50)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range []string{
		"cbbserve_coalesce_batches_total 4\n",
		fmt.Sprintf("cbbserve_coalesce_queries_total %d\n", len(queries)),
		fmt.Sprintf("cbbserve_coalesce_wait_seconds_count %d\n", len(queries)),
	} {
		if !strings.Contains(w.Body.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestContextCancellation: a queued search whose client gives up is answered
// 499 at once, counted once, and never reaches the engine; the searches
// queued around it are answered; and Shutdown — here with admission control
// off, so nothing but the coalescer knows of them — closes the engine only
// after the last flush.
func TestContextCancellation(t *testing.T) {
	eng := newGatedEngine(buildTree(t, 500), true)
	s := newTestServer(t, Config{Engine: eng, InFlightLimit: -1})
	queries := distinctQueries(4)

	bg := context.Background()
	leader := startSearch(bg, s, queries[0], true)
	<-eng.entered
	ahead := startSearch(bg, s, queries[1], true)
	awaitQueued(t, s.coal, 1)
	ctx, cancel := context.WithCancel(bg)
	quitter := startSearch(ctx, s, queries[2], true)
	awaitQueued(t, s.coal, 2)
	behind := startSearch(bg, s, queries[3], true)
	awaitQueued(t, s.coal, 3)

	cancel()
	<-quitter.done
	if quitter.code != statusClientClosed {
		t.Errorf("canceled search: code %d, want %d", quitter.code, statusClientClosed)
	}
	if n := s.canceled.Value(); n != 1 {
		t.Errorf("canceled counter = %d, want 1", n)
	}
	awaitQueued(t, s.coal, 2)

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(bg, 10*time.Second)
		defer cancel()
		shutdown <- s.Shutdown(ctx)
	}()
	select {
	case err := <-shutdown:
		t.Fatalf("Shutdown returned (%v) with a flush running and two searches queued", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(eng.gate)
	if err := <-shutdown; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	for name, c := range map[string]*searchCall{"leader": leader, "ahead": ahead, "behind": behind} {
		<-c.done
		wantBatched := 2
		if c == leader {
			wantBatched = 1
		}
		if c.code != http.StatusOK || c.resp.Batched != wantBatched {
			t.Errorf("%s: code %d batched %d, want 200 and %d", name, c.code, c.resp.Batched, wantBatched)
		}
	}
	pinned := eng.pinned()
	if len(pinned) != 2 || len(pinned[0]) != 1 || len(pinned[1]) != 2 ||
		rectKey(pinned[1][0]) != rectKey(queries[1]) || rectKey(pinned[1][1]) != rectKey(queries[3]) {
		t.Errorf("engine was asked %v, want [%v] then [%v %v]", pinned, queries[0], queries[1], queries[3])
	}
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if !eng.closed || eng.pinsAfterClose != 0 {
		t.Errorf("engine closed = %v, views pinned after Close = %d", eng.closed, eng.pinsAfterClose)
	}
}

// TestFlushSkipsCanceledMembers covers the window awaitQueued cannot reach:
// a member whose client goes after its batch left the queue. The flush
// answers it with its ctx's error and spends no search on it.
func TestFlushSkipsCanceledMembers(t *testing.T) {
	eng := newGatedEngine(buildTree(t, 500), false)
	s := newTestServer(t, Config{Engine: eng})
	queries := distinctQueries(3)
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	batch := make([]*pendingSearch, len(queries))
	for i, q := range queries {
		batch[i] = &pendingSearch{ctx: context.Background(), q: q, enqueued: time.Now(), wake: make(chan []*pendingSearch, 1)}
	}
	lead, quitter, other := batch[0], batch[1], batch[2]
	quitter.ctx = gone

	s.coal.flush(lead, batch)
	<-quitter.wake
	<-other.wake
	if quitter.out.err != context.Canceled {
		t.Errorf("canceled member: err = %v, want context.Canceled", quitter.out.err)
	}
	for _, p := range []*pendingSearch{lead, other} {
		if p.out.err != nil || p.out.batched != 2 || p.out.count != eng.asked[rectKey(p.q)].count {
			t.Errorf("live member: %+v, want batched 2 and count %d", p.out, eng.asked[rectKey(p.q)].count)
		}
	}
	if _, searched := eng.asked[rectKey(quitter.q)]; searched {
		t.Error("the canceled member's query reached the engine")
	}
	if s.coalQ.Value() != 2 || s.coalBatch.Value() != 1 {
		t.Errorf("counters: %d queries in %d batches, want 2 in 1", s.coalQ.Value(), s.coalBatch.Value())
	}
}

// TestEpochConsistencyUnderIngest is the serving-layer consistency
// guarantee under load: while a writer ingests, 8 socket clients — half
// count-only, half item-returning — each see epochs that never go back, and
// every reply agrees with the one pinned view that answered it: its epoch
// vector (so members of one batch report the same), its size as batched,
// never above CoalesceMaxBatch, and its count for the query, with the items
// only where they were asked for.
func TestEpochConsistencyUnderIngest(t *testing.T) {
	const (
		clients  = 8
		requests = 100
		max      = 4
	)
	tree := buildTree(t, 200)
	eng := newGatedEngine(tree, false)
	s := newTestServer(t, Config{Engine: eng, CoalesceMaxBatch: max})
	ts := httptest.NewServer(s)
	defer ts.Close()

	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		rects := testRects(100000, 7)
		for i := 0; ; i++ {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			if err := tree.Insert(rects[i%len(rects)], cbb.ObjectID(1000+i)); err != nil {
				writerDone <- err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	var mixedReplies atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			countOnly := c%2 == 0
			lastEpoch := uint64(0)
			for i := 0; i < requests; i++ {
				// Unique per request: the engine's log is keyed by it.
				q := cbb.R(5, 5, 15+float64(c), 15+float64(i)/requests)
				body, _ := json.Marshal(SearchRequest{Query: FromRect(q), CountOnly: countOnly})
				resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var sr SearchResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: code %d, decode error %v", c, resp.StatusCode, err)
					return
				}
				if len(sr.Epochs) != 1 || sr.Epochs[0] < lastEpoch {
					t.Errorf("client %d: epochs %v after epoch %d", c, sr.Epochs, lastEpoch)
					return
				}
				lastEpoch = sr.Epochs[0]

				eng.mu.Lock()
				a, ok := eng.asked[rectKey(q)]
				size, mixed := 0, false
				if ok {
					size = len(a.pin.queries)
					for _, peer := range a.pin.queries {
						// Hi[0] is 15 + the sending client's number.
						mixed = mixed || int(peer.Hi[0])%2 != int(q.Hi[0])%2
					}
				}
				eng.mu.Unlock()
				if !ok {
					t.Errorf("client %d: request %d never reached the engine", c, i)
					return
				}
				if sr.Epochs[0] != a.pin.epochs[0] || sr.Batched != size || size > max {
					t.Errorf("client %d: reply at epochs %v batched %d; its view was pinned at %v for %d queries (max %d)",
						c, sr.Epochs, sr.Batched, a.pin.epochs, size, max)
				}
				wantItems := a.count
				if countOnly {
					wantItems = 0
				}
				if sr.Count != a.count || len(sr.Items) != wantItems {
					t.Errorf("client %d: count %d with %d items, its view holds %d (count-only: %v)",
						c, sr.Count, len(sr.Items), a.count, countOnly)
				}
				if mixed {
					mixedReplies.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	sizes := map[int]int{}
	for _, queries := range eng.pinned() {
		sizes[len(queries)]++
	}
	t.Logf("batches by size: %v; replies out of batches mixing count-only and item-returning members: %d", sizes, mixedReplies.Load())
	if mixedReplies.Load() == 0 {
		t.Error("no batch mixed count-only and item-returning members; the test checked nothing about them")
	}
}
