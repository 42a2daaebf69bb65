// Package server is the network serving layer: an HTTP JSON API over a
// live cbb engine (a single Tree or a Hilbert-sharded ShardedTree), built
// for tail-latency discipline on top of the engine's snapshot isolation.
//
//   - Every read request is answered from one pinned snapshot view for its
//     whole lifetime: it never blocks writers, never sees a partial batch,
//     and reports the commit epoch(s) it was answered at.
//   - A point search that finds the coalescer idle is answered at once on
//     its own goroutine; searches arriving while another is being answered
//     queue behind it and share one engine BatchSearch on one pinned view as
//     soon as it ends. Batches form out of concurrency, never out of a
//     timer, so a lone client pays nothing for coalescing.
//   - Admission control sheds load with 429 + Retry-After once the
//     in-flight limit is reached and a queued request cannot be admitted
//     within the queue timeout; handlers honor context cancellation.
//   - Runtime telemetry (request counts, latency histograms with
//     p50/p95/p99, shed counts, engine I/O and buffer statistics) is
//     exported in Prometheus text format at /metrics via
//     internal/telemetry.
//
// Endpoints: POST /search, /searchall, /knn, /insert, /batch, /join;
// GET /healthz, /metrics, /stats. cmd/cbbserve wires this package to a
// listener and signal-driven graceful shutdown; cmd/cbbload replays
// workloads against it.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cbb"
	"cbb/internal/telemetry"
)

// Config tunes the serving layer.
type Config struct {
	// Engine is the index being served (required); wrap a tree with
	// NewTreeEngine or NewShardedEngine.
	Engine Engine

	// InFlightLimit bounds concurrently admitted data-plane requests;
	// beyond it requests queue up to QueueTimeout and are then shed with
	// 429. 0 defaults to 256; negative disables admission control.
	InFlightLimit int

	// QueueTimeout is how long an arriving request may wait for an
	// in-flight slot before being shed (0 defaults to 50ms).
	QueueTimeout time.Duration

	// CoalesceWindow switches /search coalescing: negative turns it off
	// (every /search pins its own view), any other value leaves it on. There
	// is no window to tune: a search that finds no other in progress is
	// answered at once, and those arriving meanwhile are answered together,
	// by one BatchSearch on one pinned view, as soon as it ends. (The name and
	// type date from a timer-driven coalescer.)
	CoalesceWindow time.Duration

	// CoalesceMaxBatch caps a coalesced batch; searches queued beyond it wait
	// for the batch after (0 defaults to 64).
	CoalesceMaxBatch int

	// SearchWorkers bounds the engine-side worker fan-out of coalesced
	// batches, /searchall and /join (0 = GOMAXPROCS).
	SearchWorkers int

	// MaxBodyBytes caps request bodies (0 defaults to 8 MiB).
	MaxBodyBytes int64
}

func (c Config) withDefaults() (Config, error) {
	if c.Engine == nil {
		return c, errNoEngine
	}
	if c.InFlightLimit == 0 {
		c.InFlightLimit = 256
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 50 * time.Millisecond
	}
	if c.CoalesceMaxBatch <= 0 {
		c.CoalesceMaxBatch = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c, nil
}

// statusClientClosed is the non-standard (nginx-convention) status recorded
// when the client canceled the request before the response was ready.
const statusClientClosed = 499

// endpoints instrumented on the data plane, in exposition order.
var dataEndpoints = []string{"/search", "/searchall", "/knn", "/insert", "/batch", "/join"}

// Server is the HTTP serving layer. It implements http.Handler, so it can
// be driven in-process (tests, benchmarks, cbbench -exp serve) or through
// Serve/Shutdown on a real listener.
type Server struct {
	cfg  Config
	eng  Engine
	reg  *telemetry.Registry
	mux  *http.ServeMux
	hs   *http.Server
	coal *coalescer

	inflight    chan struct{} // nil when admission control is disabled
	inflightG   *telemetry.Gauge
	draining    atomic.Bool
	retryAfterS int

	requests  map[string]*telemetry.Counter // ok by endpoint
	failures  map[string]*telemetry.Counter // 4xx/5xx by endpoint
	latency   map[string]*telemetry.Histogram
	shed      *telemetry.Counter
	canceled  *telemetry.Counter
	coalBatch *telemetry.Counter
	coalQ     *telemetry.Counter
	coalWait  *telemetry.Histogram
}

// New builds a server over the configured engine.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		eng:      cfg.Engine,
		reg:      telemetry.NewRegistry(),
		mux:      http.NewServeMux(),
		requests: map[string]*telemetry.Counter{},
		failures: map[string]*telemetry.Counter{},
		latency:  map[string]*telemetry.Histogram{},
	}
	s.retryAfterS = int(cfg.QueueTimeout / time.Second)
	if s.retryAfterS < 1 {
		s.retryAfterS = 1
	}
	if cfg.InFlightLimit > 0 {
		s.inflight = make(chan struct{}, cfg.InFlightLimit)
	}

	for _, ep := range dataEndpoints {
		s.requests[ep] = s.reg.Counter(
			fmt.Sprintf("cbbserve_requests_total{endpoint=%q,outcome=\"ok\"}", ep),
			"requests served by endpoint and outcome")
		s.failures[ep] = s.reg.Counter(
			fmt.Sprintf("cbbserve_requests_total{endpoint=%q,outcome=\"error\"}", ep),
			"requests served by endpoint and outcome")
		s.latency[ep] = s.reg.Histogram(
			fmt.Sprintf("cbbserve_request_seconds{endpoint=%q}", ep),
			"request latency by endpoint (admission wait included)", 1e9)
	}
	s.shed = s.reg.Counter("cbbserve_shed_total", "requests shed by admission control (429)")
	s.canceled = s.reg.Counter("cbbserve_canceled_total", "requests abandoned by the client before completion")
	s.inflightG = s.reg.Gauge("cbbserve_inflight", "admitted data-plane requests currently in flight")
	s.coalBatch = s.reg.Counter("cbbserve_coalesce_batches_total", "coalesced micro-batches flushed")
	s.coalQ = s.reg.Counter("cbbserve_coalesce_queries_total", "point queries answered through coalesced batches")
	coalSize := s.reg.Histogram("cbbserve_coalesce_batch_size", "queries per coalesced batch", 1)
	s.coalWait = s.reg.Histogram("cbbserve_coalesce_wait_seconds",
		"time a point query queued before the flush that answered it began (0 when it found the coalescer idle)", 1e9)

	// Engine-side statistics, computed at scrape time.
	s.reg.GaugeFunc("cbb_objects", "indexed objects", func() float64 { return float64(s.eng.Len()) })
	s.reg.GaugeFunc("cbb_io_leaf_reads_total", "cumulative simulated leaf-node reads", func() float64 { return float64(s.eng.IOStats().LeafReads) })
	s.reg.GaugeFunc("cbb_io_dir_reads_total", "cumulative simulated directory-node reads", func() float64 { return float64(s.eng.IOStats().DirReads) })
	s.reg.GaugeFunc("cbb_io_writes_total", "cumulative simulated node writes", func() float64 { return float64(s.eng.IOStats().Writes) })
	s.reg.GaugeFunc("cbb_buffer_hit_rate", "buffer-pool hit rate (0 without a pool)", func() float64 {
		bs, ok := s.eng.BufferStats()
		if !ok {
			return 0
		}
		return bs.HitRate()
	})

	if cfg.CoalesceWindow >= 0 {
		s.coal = &coalescer{
			eng: s.eng, max: cfg.CoalesceMaxBatch, workers: cfg.SearchWorkers,
			batches: s.coalBatch, coalesced: s.coalQ, batchSize: coalSize, wait: s.coalWait,
		}
	}

	s.mux.Handle("/search", s.handle("/search", true, s.handleSearch))
	s.mux.Handle("/searchall", s.handle("/searchall", true, s.handleSearchAll))
	s.mux.Handle("/knn", s.handle("/knn", true, s.handleKNN))
	s.mux.Handle("/insert", s.handle("/insert", true, s.handleInsert))
	s.mux.Handle("/batch", s.handle("/batch", true, s.handleBatch))
	s.mux.Handle("/join", s.handle("/join", true, s.handleJoin))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/stats", s.handleStats)

	s.hs = &http.Server{Handler: s}
	return s, nil
}

// Registry exposes the server's telemetry registry (tests and cbbench).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// ServeHTTP dispatches to the API; Server is a plain http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Serve accepts connections on l until Shutdown. It returns nil after a
// clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server and retires the engine: new data-plane
// requests are refused with 503, in-flight requests and queued point
// searches are given until ctx's deadline to complete (none is dropped
// before then), and once drained the engine is flushed (when persistent)
// and closed — so a file-backed engine's snapshot is durable and valid
// after a clean shutdown. Safe to call without a preceding Serve
// (in-process servers).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var errs []error
	if err := s.hs.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("drain: %w", err))
	}
	// In-process callers bypass hs; wait for admitted requests ourselves.
	if err := s.awaitDrained(ctx); err != nil {
		errs = append(errs, err)
	}
	if err := s.eng.Close(); err != nil {
		errs = append(errs, fmt.Errorf("engine close: %w", err))
	}
	return errors.Join(errs...)
}

// awaitDrained waits until no admitted request is in flight (admission
// slots drain to zero) and the coalescer is idle, or ctx expires. The
// coalescer is asked as well because admission control can be off, and then
// nothing else knows of a flush still running against the engine.
func (s *Server) awaitDrained(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if len(s.inflight) == 0 && (s.coal == nil || s.coal.idle()) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %d requests still in flight: %w", len(s.inflight), ctx.Err())
		case <-tick.C:
		}
	}
}

// --- request plumbing ---------------------------------------------------------

// apiError carries an HTTP status through a handler's error path.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// handle wraps a data-plane handler with method filtering, admission
// control, cancellation mapping, telemetry, and JSON rendering.
func (s *Server) handle(endpoint string, post bool, fn func(r *http.Request) (any, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status := http.StatusOK
		defer func() {
			s.latency[endpoint].Observe(time.Since(start).Nanoseconds())
			if status >= 200 && status < 300 {
				s.requests[endpoint].Inc()
			} else {
				s.failures[endpoint].Inc()
			}
		}()

		if post && r.Method != http.MethodPost {
			status = http.StatusMethodNotAllowed
			writeJSON(w, status, ErrorResponse{Error: "use POST"})
			return
		}
		if s.draining.Load() {
			status = http.StatusServiceUnavailable
			writeJSON(w, status, ErrorResponse{Error: "server is draining"})
			return
		}
		if !s.admit(r.Context()) {
			status = http.StatusTooManyRequests
			s.shed.Inc()
			w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterS))
			writeJSON(w, status, ErrorResponse{Error: "overloaded: in-flight limit reached"})
			return
		}
		defer s.release()

		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		resp, err := fn(r)
		if err != nil {
			var ae *apiError
			switch {
			case errors.As(err, &ae):
				status = ae.status
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				status = statusClientClosed
				s.canceled.Inc()
			default:
				status = http.StatusInternalServerError
			}
			writeJSON(w, status, ErrorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, status, resp)
	})
}

// admit acquires an in-flight slot, waiting up to the queue timeout; the
// request is shed when neither a slot frees up in time nor the client is
// still interested. An admitted request gives its slot back with release.
func (s *Server) admit(ctx context.Context) bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		// Full: queue up to the deadline.
		t := time.NewTimer(s.cfg.QueueTimeout)
		defer t.Stop()
		select {
		case s.inflight <- struct{}{}:
		case <-t.C:
			return false
		case <-ctx.Done():
			return false
		}
	}
	s.inflightG.Add(1)
	return true
}

func (s *Server) release() {
	if s.inflight == nil {
		return
	}
	s.inflightG.Add(-1)
	<-s.inflight
}

// maxPooledBytes is the largest request body or reply whose buffer goes back
// to its pool; one huge /batch or /join must not pin megabytes per pool slot.
const maxPooledBytes = 64 << 10

// replyEncoder is a json.Encoder kept across requests together with the
// buffer it encodes into, so a reply is one Write.
type replyEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var replyEncoders = sync.Pool{New: func() any {
	e := &replyEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	e := replyEncoders.Get().(*replyEncoder)
	e.buf.Reset()
	// The wire types hold nothing json cannot encode, and the status line
	// could not take the error back anyway.
	_ = e.enc.Encode(v)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(e.buf.Bytes()) // a client that has gone is not an error to report
	if e.buf.Cap() <= maxPooledBytes {
		replyEncoders.Put(e)
	}
}

// bodyDecoder is a json.Decoder kept across requests for its read buffer: it
// reads from itself, and so from whichever request's body it is pointed at.
type bodyDecoder struct {
	dec  *json.Decoder
	body io.Reader
	read int64 // bytes handed to dec over all requests
}

func (d *bodyDecoder) Read(p []byte) (int, error) {
	n, err := d.body.Read(p)
	d.read += int64(n)
	return n, err
}

var bodyDecoders = sync.Pool{New: func() any {
	d := &bodyDecoder{}
	d.dec = json.NewDecoder(d)
	d.dec.DisallowUnknownFields()
	return d
}}

func decodeJSON(r *http.Request, v any) error {
	d := bodyDecoders.Get().(*bodyDecoder)
	d.body = r.Body
	before := d.read
	err := d.dec.Decode(v)
	d.body = nil
	// The decoder serves another request only if nothing of this one is left
	// in it: no error (a syntax error is sticky) and no bytes read beyond the
	// value, which the next Decode would take for the start of its body.
	if err == nil && d.dec.InputOffset() == d.read && d.read-before <= maxPooledBytes {
		bodyDecoders.Put(d)
	}
	if err != nil {
		if errors.Is(err, io.EOF) {
			return badRequest("empty request body")
		}
		return badRequest("invalid JSON: %v", err)
	}
	return nil
}

// --- handlers -----------------------------------------------------------------

// handleSearch answers one range query: through the coalescer when it is on
// (alone if no other search is in progress, otherwise with the batch that
// forms behind it), on a view of its own when it is off. A count_only
// request builds no item list on either path.
func (s *Server) handleSearch(r *http.Request) (any, error) {
	var req SearchRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	q, err := req.Query.ToRect()
	if err != nil {
		return nil, badRequest("query: %v", err)
	}
	var out searchOutcome
	if s.coal != nil {
		out = s.coal.submit(r.Context(), q, !req.CountOnly)
	} else {
		out = searchAlone(s.eng, q, !req.CountOnly)
	}
	if out.err != nil {
		return nil, out.err
	}
	resp := SearchResponse{Epochs: out.epochs, Count: out.count, Batched: out.batched}
	if !req.CountOnly {
		resp.Items = fromItems(out.items)
	}
	return resp, nil
}

// handleSearchAll answers an explicit query batch on one pinned view.
func (s *Server) handleSearchAll(r *http.Request) (any, error) {
	var req SearchAllRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if len(req.Queries) == 0 {
		return nil, badRequest("need at least one query")
	}
	queries := make([]cbb.Rect, len(req.Queries))
	for i, rj := range req.Queries {
		q, err := rj.ToRect()
		if err != nil {
			return nil, badRequest("query %d: %v", i, err)
		}
		queries[i] = q
	}
	if err := r.Context().Err(); err != nil {
		return nil, err
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.SearchWorkers
	}
	view := s.eng.Snapshot()
	defer view.Close()
	res, err := view.BatchSearch(queries, cbb.BatchOptions{Collect: req.Collect, Workers: workers})
	if err != nil {
		return nil, err
	}
	resp := SearchAllResponse{Epochs: view.Epochs(), Counts: res.Counts}
	if req.Collect {
		resp.Items = make([][]ItemJSON, len(res.Items))
		for i, items := range res.Items {
			resp.Items[i] = fromItems(items)
		}
	}
	return resp, nil
}

// handleKNN answers a nearest-neighbour query on one pinned view.
func (s *Server) handleKNN(r *http.Request) (any, error) {
	var req KNNRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.K < 1 {
		return nil, badRequest("k must be at least 1")
	}
	if len(req.Point) == 0 {
		return nil, badRequest("point must not be empty")
	}
	view := s.eng.Snapshot()
	defer view.Close()
	neighbors := view.NearestNeighbors(req.K, req.Point)
	// No neighbour in an index that holds objects means the point has no
	// answer (the search validates it), which is not an empty answer.
	if len(neighbors) == 0 && !view.Bounds().IsZero() {
		return nil, badRequest("point has %d dimensions, the index %d", len(req.Point), view.Bounds().Dims())
	}
	resp := KNNResponse{Epochs: view.Epochs(), Neighbors: make([]NeighborJSON, len(neighbors))}
	for i, n := range neighbors {
		resp.Neighbors[i] = NeighborJSON{ID: int64(n.Object), Rect: FromRect(n.Rect), DistSq: n.DistSq}
	}
	return resp, nil
}

// handleInsert commits one insert and reports the published epochs.
func (s *Server) handleInsert(r *http.Request) (any, error) {
	var req InsertRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	rect, err := req.Rect.ToRect()
	if err != nil {
		return nil, badRequest("rect: %v", err)
	}
	if err := r.Context().Err(); err != nil {
		return nil, err
	}
	if err := s.eng.Insert(rect, cbb.ObjectID(req.ID)); err != nil {
		return nil, err
	}
	return InsertResponse{Epochs: s.eng.Epochs()}, nil
}

// handleBatch applies a write batch atomically.
func (s *Server) handleBatch(r *http.Request) (any, error) {
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if len(req.Ops) == 0 {
		return nil, badRequest("need at least one op")
	}
	ops := make([]WriteOp, len(req.Ops))
	for i, op := range req.Ops {
		rect, err := op.Rect.ToRect()
		if err != nil {
			return nil, badRequest("op %d rect: %v", i, err)
		}
		switch op.Op {
		case "insert":
			ops[i] = WriteOp{Rect: rect, ID: cbb.ObjectID(op.ID)}
		case "delete":
			ops[i] = WriteOp{Delete: true, Rect: rect, ID: cbb.ObjectID(op.ID)}
		default:
			return nil, badRequest("op %d: unknown op %q (want insert or delete)", i, op.Op)
		}
	}
	if err := r.Context().Err(); err != nil {
		return nil, err
	}
	found, err := s.eng.Apply(ops)
	if err != nil {
		return nil, err
	}
	return BatchResponse{Epochs: s.eng.Epochs(), Applied: len(ops), Found: found}, nil
}

// handleJoin runs an index nested loop join of the request's probe set
// against the index on one pinned view.
func (s *Server) handleJoin(r *http.Request) (any, error) {
	var req JoinRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if len(req.Probes) == 0 {
		return nil, badRequest("need at least one probe")
	}
	probes := make([]cbb.Item, len(req.Probes))
	for i, p := range req.Probes {
		rect, err := p.Rect.ToRect()
		if err != nil {
			return nil, badRequest("probe %d rect: %v", i, err)
		}
		probes[i] = cbb.Item{Object: cbb.ObjectID(p.ID), Rect: rect}
	}
	if err := r.Context().Err(); err != nil {
		return nil, err
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.SearchWorkers
	}
	view := s.eng.Snapshot()
	defer view.Close()
	var visit func(cbb.JoinPair)
	var results collectPairs
	if req.Collect {
		visit = results.add
	}
	res, err := cbb.JoinItems(view, probes, cbb.JoinOptions{Workers: workers}, visit)
	if err != nil {
		return nil, err
	}
	return JoinResponse{
		Epochs:    view.Epochs(),
		Pairs:     res.Pairs,
		Results:   results.pairs,
		Truncated: results.truncated,
	}, nil
}

// collectPairs accumulates join pairs up to MaxJoinPairs; the join engine
// invokes the callback from multiple workers, so appends are locked.
type collectPairs struct {
	mu        sync.Mutex
	pairs     []PairJSON
	truncated bool
}

func (c *collectPairs) add(p cbb.JoinPair) {
	c.mu.Lock()
	if len(c.pairs) < MaxJoinPairs {
		c.pairs = append(c.pairs, PairJSON{Probe: int64(p.Left), Indexed: int64(p.Right)})
	} else {
		c.truncated = true
	}
	c.mu.Unlock()
}

// --- control plane ------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Objects: s.eng.Len(), Epochs: s.eng.Epochs()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	io := s.eng.IOStats()
	resp := StatsResponse{
		Objects:        st.Objects,
		Height:         st.Height,
		LeafNodes:      st.LeafNodes,
		DirNodes:       st.DirNodes,
		ClipPoints:     st.ClipPoints,
		AvgClipPoints:  st.AvgClipPoints,
		ClipTableBytes: st.ClipTableBytes,
		Epochs:         s.eng.Epochs(),
	}
	resp.IO.LeafReads = io.LeafReads
	resp.IO.DirReads = io.DirReads
	resp.IO.Writes = io.Writes
	resp.IO.Reclips = io.Reclips
	if bs, ok := s.eng.BufferStats(); ok {
		resp.Buffer = &struct {
			Hits    int64   `json:"hits"`
			Misses  int64   `json:"misses"`
			HitRate float64 `json:"hit_rate"`
		}{Hits: bs.Hits, Misses: bs.Misses, HitRate: bs.HitRate()}
	}
	var reqs, errsN int64
	for _, ep := range dataEndpoints {
		reqs += s.requests[ep].Value()
		errsN += s.failures[ep].Value()
	}
	resp.Server.Requests = reqs
	resp.Server.Errors = errsN
	resp.Server.Shed = s.shed.Value()
	resp.Server.Coalesced = s.coalQ.Value()
	resp.Server.CoalesceWaitP50 = s.coalWait.Quantile(0.5)
	resp.Server.Batches = s.coalBatch.Value()
	resp.Server.InFlight = s.inflightG.Value()
	writeJSON(w, http.StatusOK, resp)
}
