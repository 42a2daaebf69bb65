package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"cbb"
	"cbb/internal/server"
)

const (
	serveObjects = 200000
	serveConns   = 2
	writeEvery   = 10 // every tenth request of a connection is a /batch
	// writesPerSecond bounds the pre-generated /batch bodies per connection;
	// a connection that exhausts them ends its window early (it would need
	// 20k requests a second to do so).
	writesPerSecond = 2000
	warmupRequests  = 500
)

// serveConfig is exactly what cmd/cbbserve passes with no flags given: zero
// values select the server's defaults (in-flight 256, queue 50 ms, coalesce
// 200 µs / 64) and -workers defaults to 1.
func serveConfig(eng server.Engine) server.Config {
	return server.Config{Engine: eng, SearchWorkers: 1}
}

// liveServer is an internal/server on a real loopback listener, in-process.
type liveServer struct {
	srv  *server.Server
	url  string
	done chan error // Serve's return value
}

func startServer(cfg server.Config) (*liveServer, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv, url: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- srv.Serve(l) }()
	return ls, nil
}

// stop drains the server, closes its engine and waits for Serve to return.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if serr := <-ls.done; err == nil {
		err = serr
	}
	return err
}

// conn is one closed-loop client on one keep-alive connection.
type conn struct {
	id      int
	client  *http.Client
	base    string
	search  [][]byte // /search bodies, index-aligned with the range stream
	batches [][]byte // /batch bodies, in order
	want    []int32

	nextWrite int
	nextRead  int
	lastEpoch []uint64
	attempted int64
	failed    int64
	firstFail string
}

func newConn(id int, base string, in *inputs, search [][]byte, batches [][]byte) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &conn{id: id, client: &http.Client{Transport: tr}, base: base, search: search, batches: batches, want: in.want,
		// Connections start at different points of the stream so they do not
		// ask the same question at the same moment.
		nextRead: id * len(search) / serveConns}
}

func (c *conn) fail(format string, args ...any) {
	c.failed++
	if c.firstFail == "" {
		c.firstFail = fmt.Sprintf("connection %d: ", c.id) + fmt.Sprintf(format, args...)
	}
}

// post is one round trip: send, read the whole reply, decode it.
func (c *conn) post(path string, body []byte, reply any) bool {
	c.attempted++
	resp, err := c.client.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		c.fail("%s: %v", path, err)
		return false
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		c.fail("%s: status %d, read error %v: %s", path, resp.StatusCode, err, raw)
		return false
	}
	if err := json.Unmarshal(raw, reply); err != nil {
		c.fail("%s: reply does not decode: %v", path, err)
		return false
	}
	return true
}

// epochsAdvance checks that a reply's epoch vector is non-empty and never
// behind the previous reply on this connection.
func (c *conn) epochsAdvance(path string, epochs []uint64) {
	if len(epochs) == 0 {
		c.fail("%s: empty epochs", path)
		return
	}
	for i, e := range epochs {
		if i < len(c.lastEpoch) && e < c.lastEpoch[i] {
			c.fail("%s: epoch went back from %d to %d", path, c.lastEpoch[i], e)
			return
		}
	}
	c.lastEpoch = epochs
}

func (c *conn) read() {
	k := c.nextRead % len(c.search)
	c.nextRead++
	var reply server.SearchResponse
	if !c.post("/search", c.search[k], &reply) {
		return
	}
	c.epochsAdvance("/search", reply.Epochs)
	// Each connection keeps at most one cloned object live.
	if extra := reply.Count - int(c.want[k]); extra < 0 || extra > serveConns {
		c.fail("/search: query %d counted %d objects, the static index holds %d", k, reply.Count, c.want[k])
	}
}

func (c *conn) write() {
	var reply server.BatchResponse
	ops := 2
	if c.nextWrite == 0 {
		ops = 1 // nothing to delete yet
	}
	body := c.batches[c.nextWrite]
	c.nextWrite++
	if !c.post("/batch", body, &reply) {
		return
	}
	c.epochsAdvance("/batch", reply.Epochs)
	if reply.Applied != ops || reply.Found != ops-1 {
		c.fail("/batch: applied %d found %d, want %d and %d", reply.Applied, reply.Found, ops, ops-1)
	}
}

// run issues requests until stop says so, one write in every writeEvery.
func (c *conn) run(tr *tracer, reads, writes *recorder, stop func(n int, now time.Time) bool) {
	for n := 0; ; n++ {
		isWrite := n%writeEvery == writeEvery-1
		if isWrite && c.nextWrite == len(c.batches) {
			return
		}
		t0 := time.Now()
		rec, name := reads, "POST /search"
		if isWrite {
			c.write()
			rec, name = writes, "POST /batch"
		} else {
			c.read()
		}
		now := time.Now()
		rec.add(t0, now)
		if tr.on() {
			tr.record(name, int64(c.id)<<32|int64(n), t0, now)
		}
		if stop(n, now) {
			return
		}
	}
}

type serveMixed struct {
	setupState
	tree  *cbb.Tree
	ls    *liveServer
	conns []*conn
}

func setupServeMixed(rc *runCtx) (instance, error) {
	w := &serveMixed{}
	var err error
	if w.in, err = genInputs("rea02", rc.scaled(serveObjects), 0, rc.cfg.seed); err != nil {
		return nil, err
	}
	search, err := searchBodies(w.in.ranges)
	if err != nil {
		return nil, err
	}
	perConn := int(rc.cfg.seconds*writesPerSecond) + warmupRequests
	batches := make([][][]byte, serveConns)
	for c := range batches {
		if batches[c], err = batchBodies(w.in, c, perConn, rc.cfg.seed); err != nil {
			return nil, err
		}
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
	// The engine's own single-threaded pass: leaf reads per query, and the
	// served tree checked against the oracle before anything is cloned in.
	w.tree.ResetIOStats()
	w.in.passChecked(rc.tally, "engine pass", w.tree.Search)
	w.leafReads = float64(w.tree.IOStats().LeafReads) / float64(len(w.in.ranges))

	var eng server.Engine = server.NewTreeEngine(w.tree, false)
	if rc.tr != nil {
		eng = tracedEngine{Engine: eng, tr: rc.tr}
	}
	if w.ls, err = startServer(serveConfig(eng)); err != nil {
		return nil, err
	}
	for c := 0; c < serveConns; c++ {
		w.conns = append(w.conns, newConn(c, w.ls.url, w.in, search, batches[c]))
	}
	// Warm-up over the socket: connections open, pools and caches fill.
	w.drive(nil, warmupRequests, func(n int, _ time.Time) bool { return n+1 >= warmupRequests })
	return w, nil
}

// drive runs every connection's closed loop at once and returns their
// recorders (reads, writes), all started on one clock and sized for
// capacity requests per connection.
func (w *serveMixed) drive(tr *tracer, capacity int, stop func(n int, now time.Time) bool) (reads, writes []*recorder) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range w.conns {
		r, wr := newRecorder(start, capacity), newRecorder(start, capacity/writeEvery+1)
		reads, writes = append(reads, r), append(writes, wr)
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			c.run(tr, r, wr, stop)
		}(c)
	}
	wg.Wait()
	return reads, writes
}

func (w *serveMixed) objects() int { return w.tree.Len() }

func (w *serveMixed) readOp() (string, func(i int)) {
	return "POST /search", func(int) { w.conns[0].read() }
}

func (w *serveMixed) measure(rc *runCtx, m *measurements) error {
	d := rc.window(1)
	deadline := time.Now().Add(d)
	// Loopback round trips take tens of µs at the very least.
	reads, writes := w.drive(rc.tr, int(d/(20*time.Microsecond))+1024,
		func(_ int, now time.Time) bool { return !now.Before(deadline) })
	m.reads(summarize(timeSlices(fineSlices, reads...)))
	m.writes(summarize(timeSlices(fineSlices, writes...)), 2)
	m.info["connections"] = serveConns
	m.info["write_share"] = 1.0 / writeEvery
	m.info["heap_bytes_per_object_unsettled"] = (float64(heapAlloc()) - float64(w.heapBase)) / float64(w.tree.Len())
	return w.settleVersions()
}

// settleVersions makes the heap reading that follows the window repeat.
// internal/rtree keeps its recently published versions in a slice that
// Tree.publish filters in place, so whenever requests held several versions
// pinned at once the slice's backing array keeps pointers to them beyond
// its length, until some later moment pins as many again; and each such
// version keeps every node replaced since alive. How old the leftovers are
// depends on how requests interleaved: with an identical final tree this
// workload's heap read 168 to 233 B/object from run to run when the
// benchmark was defined (recorded above as the unsettled figure; README,
// "Findings"). Publishing settlePins empty batches while a view pins each
// outgrows that array, and the versions left in the new one's tail are
// empty batches apart, so they keep nothing alive.
func (w *serveMixed) settleVersions() error {
	const settlePins = 16
	publish := func() error {
		b, err := w.tree.Begin()
		if err != nil {
			return err
		}
		return b.Commit()
	}
	views := make([]*cbb.View, settlePins)
	for i := range views {
		views[i] = w.tree.Snapshot()
		if err := publish(); err != nil {
			return err
		}
	}
	for _, v := range views {
		v.Close()
	}
	return publish()
}

func (w *serveMixed) verify(rc *runCtx, m *measurements) error {
	live := 0
	for _, c := range w.conns {
		rc.tally.add(c.attempted, c.failed, "%s", c.firstFail)
		if c.nextWrite > 0 {
			live++
		}
	}
	n := len(w.in.items) + live
	rc.tally.check(w.tree.Len() == n, "final Len() is %d, want %d (static objects + one live clone per connection)", w.tree.Len(), n)
	return nil
}

func (w *serveMixed) close() error {
	if w.ls == nil {
		return nil
	}
	for _, c := range w.conns {
		c.client.CloseIdleConnections()
	}
	err := w.ls.stop()
	w.ls = nil
	return err
}

func searchBodies(queries []cbb.Rect) ([][]byte, error) {
	out := make([][]byte, len(queries))
	for i, q := range queries {
		b, err := json.Marshal(server.SearchRequest{Query: server.FromRect(q), CountOnly: true})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// batchBodies pre-marshals one connection's write stream: body k inserts a
// clone of a randomly chosen indexed object under a fresh id and deletes the
// clone body k-1 inserted, so the index size stays constant.
func batchBodies(in *inputs, connID, n int, seed int64) ([][]byte, error) {
	out := make([][]byte, n)
	firstID := len(in.items) + connID*n
	rng := rand.New(rand.NewSource(seed + 6 + int64(connID)))
	sources := make([]int, n)
	for k := range sources {
		sources[k] = rng.Intn(len(in.items))
	}
	clone := func(k int) server.BatchOpJSON {
		return server.BatchOpJSON{ID: int64(firstID + k), Rect: server.FromRect(in.items[sources[k]].Rect)}
	}
	for k := range out {
		ins := clone(k)
		ins.Op = "insert"
		ops := []server.BatchOpJSON{ins}
		if k > 0 {
			del := clone(k - 1)
			del.Op = "delete"
			ops = append(ops, del)
		}
		b, err := json.Marshal(server.BatchRequest{Ops: ops})
		if err != nil {
			return nil, err
		}
		out[k] = b
	}
	return out, nil
}
