package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"cbb"
	"cbb/internal/querygen"
	"cbb/internal/server"
	"cbb/internal/telemetry"
)

// RunServe benchmarks the serving path end to end but in-process: range
// queries are marshaled to JSON and driven through the internal/server HTTP
// handler with httptest recorders — no sockets — so the numbers isolate the
// serving layer (decode, admission, snapshot pin, query, encode) from
// kernel TCP behaviour. Each dataset × profile is measured twice: "direct"
// (sequential requests, coalescing disabled) and "coalesced" (workers
// concurrent clients; a request that arrives while another is being
// answered shares the next batch), the two paths a live cbbserve serves
// under light and heavy concurrency respectively.
func RunServe(cfg Config, workers int) (*ServeResult, error) {
	cfg = cfg.WithDefaults()
	if workers < 2 {
		workers = 2
	}
	res := &ServeResult{Workers: workers}
	for _, name := range cfg.Datasets {
		ds, err := cfg.LoadDataset(name)
		if err != nil {
			return nil, err
		}
		tree, err := cbb.New(cbb.Options{
			Dims:     ds.Spec.Dims,
			Variant:  cbb.RRStarTree,
			Universe: ds.Universe,
		})
		if err != nil {
			return nil, err
		}
		items := make([]cbb.Item, len(ds.Items))
		for i, it := range ds.Items {
			items[i] = cbb.Item{Object: it.Object, Rect: it.Rect}
		}
		if err := tree.BulkLoad(items); err != nil {
			return nil, err
		}
		objects := make([]cbb.Rect, len(ds.Items))
		for i, it := range ds.Items {
			objects[i] = it.Rect
		}
		gen, err := querygen.New(objects, ds.Universe, cfg.Seed)
		if err != nil {
			return nil, err
		}

		direct, err := server.New(server.Config{
			Engine:         server.NewTreeEngine(tree, false),
			CoalesceWindow: -1, // sequential clients never share a batch
			SearchWorkers:  1,
		})
		if err != nil {
			return nil, err
		}
		coalesced, err := server.New(server.Config{
			Engine:           server.NewTreeEngine(tree, false),
			CoalesceMaxBatch: workers,
			SearchWorkers:    1,
		})
		if err != nil {
			return nil, err
		}

		for _, p := range querygen.AllProfiles() {
			bodies, err := marshalSearches(gen.Queries(p, cfg.Queries))
			if err != nil {
				return nil, err
			}
			row := ServeRow{Dataset: name, Profile: p.String()}
			row.Direct = serveSequential(direct, bodies)
			row.Coalesced = serveConcurrent(coalesced, bodies, workers)
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func marshalSearches(queries []cbb.Rect) ([][]byte, error) {
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		b, err := json.Marshal(server.SearchRequest{
			Query:     server.RectJSON{Lo: q.Lo, Hi: q.Hi},
			CountOnly: true,
		})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// ServeLatency is one measured pass over a query set through the handler.
type ServeLatency struct {
	P50, P95, P99 time.Duration
	QPS           float64
}

func serveSequential(s *server.Server, bodies [][]byte) ServeLatency {
	var hist telemetry.Histogram
	start := time.Now()
	for _, body := range bodies {
		t0 := time.Now()
		serveOne(s, body)
		hist.Observe(time.Since(t0).Nanoseconds())
	}
	return summarize(&hist, len(bodies), time.Since(start))
}

func serveConcurrent(s *server.Server, bodies [][]byte, workers int) ServeLatency {
	var hist telemetry.Histogram
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				t0 := time.Now()
				serveOne(s, bodies[i])
				hist.Observe(time.Since(t0).Nanoseconds())
			}
		}()
	}
	wg.Wait()
	return summarize(&hist, len(bodies), time.Since(start))
}

func serveOne(s *server.Server, body []byte) {
	r := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		panic(fmt.Sprintf("experiments: /search returned %d: %s", w.Code, w.Body.String()))
	}
}

func summarize(h *telemetry.Histogram, n int, elapsed time.Duration) ServeLatency {
	s := h.Summarize()
	return ServeLatency{
		P50: time.Duration(s.P50),
		P95: time.Duration(s.P95),
		P99: time.Duration(s.P99),
		QPS: float64(n) / elapsed.Seconds(),
	}
}

// ServeRow is one dataset × profile measurement pair.
type ServeRow struct {
	Dataset   string
	Profile   string
	Direct    ServeLatency
	Coalesced ServeLatency
}

// ServeResult holds the serving-path latency sweep.
type ServeResult struct {
	Workers int
	Rows    []ServeRow
}

// Table renders the sweep with latencies in microseconds.
func (r *ServeResult) Table() *Table {
	t := NewTable("Serving path: in-process handler latency (µs) and throughput",
		"dataset", "profile",
		"direct p50", "direct p99", "direct qps",
		"coal p50", "coal p99", "coal qps")
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Profile,
			us(row.Direct.P50), us(row.Direct.P99), row.Direct.QPS,
			us(row.Coalesced.P50), us(row.Coalesced.P99), row.Coalesced.QPS)
	}
	t.AddNote("direct: sequential requests, coalescing disabled; coal: %d concurrent clients, batches of what queued behind the request in progress", r.Workers)
	t.AddNote("in-process httptest handler — JSON decode/encode and admission included, TCP excluded")
	return t
}
