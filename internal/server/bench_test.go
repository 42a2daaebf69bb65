package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The serving-path microbenchmarks drive the HTTP handler in-process (no
// network, no real listener) so BENCH_baseline.json can track serving-layer
// regressions — JSON decode, admission, snapshot pin, query, JSON encode —
// independently of kernel TCP behaviour.

func benchServer(b testing.TB, coalesce bool) *Server {
	b.Helper()
	cfg := Config{
		Engine:           NewTreeEngine(buildTree(b, 20000), false),
		CoalesceMaxBatch: 16,
		SearchWorkers:    1,
	}
	if !coalesce {
		cfg.CoalesceWindow = -1
	}
	return newTestServer(b, cfg)
}

var benchSearchBody, _ = json.Marshal(SearchRequest{
	Query:     RectJSON{Lo: []float64{40, 40}, Hi: []float64{45, 45}},
	CountOnly: true,
})

// BenchmarkServeSearch measures one uncoalesced point search through the
// full handler stack.
func BenchmarkServeSearch(b *testing.B) {
	s := benchServer(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(benchSearchBody))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("code = %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkServeSearchAll measures an explicit 64-query batch on one
// pinned view through the handler stack (per-op time is for the whole
// batch).
func BenchmarkServeSearchAll(b *testing.B) {
	s := benchServer(b, false)
	queries := make([]RectJSON, 64)
	for i := range queries {
		lo := float64(i % 50)
		queries[i] = RectJSON{Lo: []float64{lo, lo}, Hi: []float64{lo + 5, lo + 5}}
	}
	body, _ := json.Marshal(SearchAllRequest{Queries: queries, Workers: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/searchall", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("code = %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkServeSearchCoalesced measures the coalescing path under
// concurrent clients: a search that arrives while another is being answered
// shares the next batch and its one pinned view.
func BenchmarkServeSearchCoalesced(b *testing.B) {
	s := benchServer(b, true)
	b.ReportAllocs()
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(benchSearchBody))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				b.Fatalf("code = %d: %s", w.Code, w.Body.String())
			}
		}
	})
}

// discardWriter is a ResponseWriter that keeps its header map and drops
// the body, so a measurement sees the handler's allocations and not a
// recorder's.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// replayBody is a request body that can be rewound.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// searchRequestAllocsCeiling is what one count-only /search allocated when
// the request path was last worked on, coalescing on or off (a search that
// finds the coalescer idle runs the direct path's code): the decoded request
// with its two corners, their validated copy in a Rect, the body limiter,
// the pinned view and its epoch vector, the counting visitor, and the reply
// value. The parent of that change allocated 29, among them a decoder, an
// encoder and a 16-item result slice that count_only then threw away.
const searchRequestAllocsCeiling = 14

// TestSearchRequestAllocs holds the request path of a count-only /search —
// admission, decode, coalescer, pin, search, encode — to its allocation
// count: request and writer are reused, so everything counted is the
// server's.
func TestSearchRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops Puts")
	}
	for _, coalesce := range []bool{true, false} {
		s := benchServer(t, coalesce)
		body := &replayBody{}
		r := httptest.NewRequest(http.MethodPost, "/search", nil)
		w := &discardWriter{header: http.Header{}}
		allocs := testing.AllocsPerRun(200, func() {
			body.Reset(benchSearchBody)
			r.Body = body // the handler wraps r.Body in place
			s.ServeHTTP(w, r)
		})
		if w.code != http.StatusOK {
			t.Fatalf("coalescing %v: code %d", coalesce, w.code)
		}
		t.Logf("coalescing %v: %.0f allocs per count-only /search", coalesce, allocs)
		if allocs > searchRequestAllocsCeiling {
			t.Errorf("coalescing %v: a count-only /search allocates %.0f times, ceiling %d",
				coalesce, allocs, searchRequestAllocsCeiling)
		}
	}
}
