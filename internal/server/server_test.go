package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbb"
)

// testRects returns n deterministic random rectangles in [0,100)^2.
func testRects(n int, seed int64) []cbb.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]cbb.Rect, n)
	for i := range out {
		x, y := rng.Float64()*99, rng.Float64()*99
		w, h := rng.Float64(), rng.Float64()
		out[i] = cbb.R(x, y, x+w, y+h)
	}
	return out
}

func buildTree(t testing.TB, n int) *cbb.Tree {
	t.Helper()
	tree, err := cbb.New(cbb.Options{Dims: 2, Universe: cbb.R(0, 0, 100, 100)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range testRects(n, 1) {
		if err := tree.Insert(r, cbb.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// post drives a handler in-process and decodes the JSON response.
func post(t testing.TB, s *Server, path string, req, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if resp != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), resp); err != nil {
			t.Fatalf("%s: decoding %q: %v", path, w.Body.String(), err)
		}
	}
	return w.Code
}

func get(t testing.TB, s *Server, path string, resp any) int {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if resp != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), resp); err != nil {
			t.Fatalf("%s: decoding %q: %v", path, w.Body.String(), err)
		}
	}
	return w.Code
}

func TestEndpointsEndToEnd(t *testing.T) {
	for _, mode := range []string{"tree", "sharded"} {
		t.Run(mode, func(t *testing.T) {
			var eng Engine
			if mode == "tree" {
				eng = NewTreeEngine(buildTree(t, 500), false)
			} else {
				st, err := cbb.NewSharded(cbb.ShardedOptions{
					Options: cbb.Options{Dims: 2, Universe: cbb.R(0, 0, 100, 100)},
					Shards:  3,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range testRects(500, 1) {
					if err := st.Insert(r, cbb.ObjectID(i)); err != nil {
						t.Fatal(err)
					}
				}
				eng = NewShardedEngine(st, false)
			}
			s := newTestServer(t, Config{Engine: eng, CoalesceWindow: -1})

			q := RectJSON{Lo: []float64{10, 10}, Hi: []float64{40, 40}}
			wantRect, _ := q.ToRect()
			want := 0
			v := eng.Snapshot()
			v.Search(wantRect, func(cbb.ObjectID, cbb.Rect) bool { want++; return true })
			v.Close()

			// /search
			var sr SearchResponse
			if code := post(t, s, "/search", SearchRequest{Query: q}, &sr); code != 200 {
				t.Fatalf("/search code = %d", code)
			}
			if sr.Count != want || len(sr.Items) != want {
				t.Errorf("/search count = %d (items %d), want %d", sr.Count, len(sr.Items), want)
			}
			if len(sr.Epochs) == 0 {
				t.Error("/search response has no epochs")
			}

			// /searchall
			var sar SearchAllResponse
			if code := post(t, s, "/searchall", SearchAllRequest{Queries: []RectJSON{q, q}, Collect: true}, &sar); code != 200 {
				t.Fatalf("/searchall code = %d", code)
			}
			if len(sar.Counts) != 2 || sar.Counts[0] != want || sar.Counts[1] != want {
				t.Errorf("/searchall counts = %v, want [%d %d]", sar.Counts, want, want)
			}
			if len(sar.Items) != 2 || len(sar.Items[0]) != want {
				t.Errorf("/searchall items misshaped")
			}

			// /knn
			var kr KNNResponse
			if code := post(t, s, "/knn", KNNRequest{Point: []float64{50, 50}, K: 5}, &kr); code != 200 {
				t.Fatalf("/knn code = %d", code)
			}
			if len(kr.Neighbors) != 5 {
				t.Errorf("/knn neighbors = %d, want 5", len(kr.Neighbors))
			}
			// k far beyond the index ("all of them" spelled as MaxInt) returns
			// every object, ordered by (distance, id), at a cost sized by the
			// index; a point of the wrong dimensionality is an error, not an
			// empty answer.
			if code := post(t, s, "/knn", KNNRequest{Point: []float64{50, 50}, K: math.MaxInt}, &kr); code != 200 {
				t.Fatalf("/knn k=MaxInt code = %d", code)
			}
			if len(kr.Neighbors) != eng.Len() {
				t.Errorf("/knn k=MaxInt neighbors = %d, want all %d", len(kr.Neighbors), eng.Len())
			}
			for i := 1; i < len(kr.Neighbors); i++ {
				if a, b := kr.Neighbors[i-1], kr.Neighbors[i]; b.DistSq < a.DistSq || b.DistSq == a.DistSq && b.ID <= a.ID {
					t.Fatalf("/knn rank %d: %+v after %+v, want ascending (distsq, id)", i, b, a)
				}
			}
			for _, point := range [][]float64{{50}, {50, 50, 50}} {
				if code := post(t, s, "/knn", KNNRequest{Point: point, K: 5}, nil); code != http.StatusBadRequest {
					t.Errorf("/knn with a %d-d point on a 2-d index: code = %d, want 400", len(point), code)
				}
			}

			// /insert then re-search
			ins := InsertRequest{ID: 100000, Rect: RectJSON{Lo: []float64{20, 20}, Hi: []float64{21, 21}}}
			var ir InsertResponse
			if code := post(t, s, "/insert", ins, &ir); code != 200 {
				t.Fatalf("/insert code = %d", code)
			}
			if len(ir.Epochs) == 0 {
				t.Error("/insert response has no epochs")
			}
			var sr2 SearchResponse
			post(t, s, "/search", SearchRequest{Query: q}, &sr2)
			if sr2.Count != want+1 {
				t.Errorf("post-insert count = %d, want %d", sr2.Count, want+1)
			}

			// /batch: delete the inserted object again, insert two more.
			br := BatchRequest{Ops: []BatchOpJSON{
				{Op: "delete", ID: 100000, Rect: ins.Rect},
				{Op: "insert", ID: 100001, Rect: ins.Rect},
				{Op: "insert", ID: 100002, Rect: ins.Rect},
			}}
			var bres BatchResponse
			if code := post(t, s, "/batch", br, &bres); code != 200 {
				t.Fatalf("/batch code = %d", code)
			}
			if bres.Applied != 3 || bres.Found != 1 {
				t.Errorf("/batch applied=%d found=%d, want 3/1", bres.Applied, bres.Found)
			}
			var sr3 SearchResponse
			post(t, s, "/search", SearchRequest{Query: q}, &sr3)
			if sr3.Count != want+2 {
				t.Errorf("post-batch count = %d, want %d", sr3.Count, want+2)
			}

			// /join: probe with the same query window must count the same
			// matches.
			var jr JoinResponse
			if code := post(t, s, "/join", JoinRequest{Probes: []ItemJSON{{ID: 1, Rect: q}}, Collect: true}, &jr); code != 200 {
				t.Fatalf("/join code = %d", code)
			}
			if jr.Pairs != int64(want+2) || len(jr.Results) != want+2 {
				t.Errorf("/join pairs = %d (results %d), want %d", jr.Pairs, len(jr.Results), want+2)
			}

			// control plane
			var hr HealthResponse
			if code := get(t, s, "/healthz", &hr); code != 200 || hr.Status != "ok" {
				t.Errorf("/healthz = %d %q", code, hr.Status)
			}
			if hr.Objects != 502 {
				t.Errorf("/healthz objects = %d, want 502", hr.Objects)
			}
			var st StatsResponse
			if code := get(t, s, "/stats", &st); code != 200 {
				t.Fatalf("/stats code = %d", code)
			}
			if st.Objects != 502 || st.Server.Requests == 0 {
				t.Errorf("/stats objects=%d requests=%d", st.Objects, st.Server.Requests)
			}

			r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			metricsOut := w.Body.String()
			for _, wantLine := range []string{
				"cbbserve_requests_total", "cbbserve_request_seconds",
				"cbbserve_shed_total", "cbb_objects", "cbb_io_leaf_reads_total",
			} {
				if !strings.Contains(metricsOut, wantLine) {
					t.Errorf("/metrics missing %q", wantLine)
				}
			}
		})
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Engine: NewTreeEngine(buildTree(t, 10), false)})
	cases := []struct {
		path string
		body string
		want int
	}{
		{"/search", ``, http.StatusBadRequest},
		{"/search", `{"query":{"lo":[1],"hi":[2,3]}}`, http.StatusBadRequest},
		{"/search", `{"bogus":1}`, http.StatusBadRequest},
		{"/searchall", `{"queries":[]}`, http.StatusBadRequest},
		{"/knn", `{"point":[1,2],"k":0}`, http.StatusBadRequest},
		{"/knn", `{"point":[],"k":1}`, http.StatusBadRequest},
		{"/knn", `{"point":[1,2,3],"k":1}`, http.StatusBadRequest},
		{"/knn", `{"point":[1e999,2],"k":1}`, http.StatusBadRequest},
		{"/insert", `{"id":1,"rect":{"lo":[5,5],"hi":[1,1]}}`, http.StatusBadRequest},
		{"/batch", `{"ops":[{"op":"upsert","id":1,"rect":{"lo":[1,1],"hi":[2,2]}}]}`, http.StatusBadRequest},
		{"/join", `{"probes":[]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != c.want {
			t.Errorf("%s %q: code = %d, want %d (%s)", c.path, c.body, w.Code, c.want, w.Body.String())
		}
	}
	// Method filtering.
	r := httptest.NewRequest(http.MethodGet, "/search", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /search = %d, want 405", w.Code)
	}
}

// TestAdmissionControl fills the in-flight limit and checks that the next
// request is shed with 429 + Retry-After and counted in telemetry.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{
		Engine:        NewTreeEngine(buildTree(t, 10), false),
		InFlightLimit: 1,
		QueueTimeout:  5 * time.Millisecond,
	})
	// Occupy the only slot directly.
	if !s.admit(context.Background()) {
		t.Fatal("could not admit the first request")
	}
	var resp SearchResponse
	req := SearchRequest{Query: RectJSON{Lo: []float64{0, 0}, Hi: []float64{1, 1}}}
	body, _ := json.Marshal(req)
	r := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	if got := s.shed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	s.release()
	// With the slot free the same request succeeds.
	if code := post(t, s, "/search", req, &resp); code != 200 {
		t.Errorf("post-release code = %d, want 200", code)
	}
}

// TestGracefulShutdownDrains is the shutdown satellite: a file-backed
// server under concurrent load is shut down mid-traffic; every
// acknowledged write must survive into the snapshot file, no in-flight
// request may be dropped before the drain deadline, and the file must
// reopen and validate cleanly.
func TestGracefulShutdownDrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.cbb")
	tree, err := cbb.Create(path, cbb.Options{Dims: 2, Universe: cbb.R(0, 0, 100, 100)})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Engine: NewTreeEngine(tree, true)})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	base := "http://" + l.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}

	const writers = 4
	var acked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wkr := 0; wkr < writers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rects := testRects(10000, int64(wkr+10))
			stopping := func() bool {
				select {
				case <-stop:
					return true
				default:
					return false
				}
			}
			for i := 0; ; i++ {
				req := InsertRequest{
					ID:   int64(wkr*1000000 + i),
					Rect: FromRect(rects[i%len(rects)]),
				}
				body, _ := json.Marshal(req)
				resp, err := client.Post(base+"/insert", "application/json", bytes.NewReader(body))
				if err != nil {
					// A transport error is legitimate only once the drain has
					// begun (close(stop) happens before Shutdown, so checking
					// at error time cannot misclassify): the listener closes
					// and idle keep-alive connections are reset. An acked
					// response can never be lost this way — acks are counted
					// only on a complete 200 body.
					if !stopping() {
						t.Errorf("writer %d: request failed before drain started: %v", wkr, err)
					}
					return
				}
				var ir InsertResponse
				decErr := json.NewDecoder(resp.Body).Decode(&ir)
				resp.Body.Close()
				switch {
				case resp.StatusCode == 200:
					if decErr != nil || len(ir.Epochs) == 0 {
						t.Errorf("writer %d: 200 with bad body: %v", wkr, decErr)
						return
					}
					acked.Add(1)
				case resp.StatusCode == http.StatusServiceUnavailable, resp.StatusCode == http.StatusTooManyRequests:
					// Shed or draining: not acked, fine.
				default:
					t.Errorf("writer %d: unexpected status %d", wkr, resp.StatusCode)
					return
				}
				if stopping() {
					return
				}
			}
		}(wkr)
	}

	// Let traffic build — at least one acknowledged insert, or the test
	// proves nothing — then shut down mid-flight. A fixed sleep is not
	// enough: under -race on a loaded single-core machine 100ms can pass
	// before the first insert completes.
	deadline := time.Now().Add(10 * time.Second)
	for acked.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// The snapshot file must reopen, validate, and contain at least every
	// acknowledged insert (an unacked insert may have committed too).
	got := acked.Load()
	if got == 0 {
		t.Fatal("no insert was acknowledged; test gave no coverage")
	}
	reopened, err := cbb.Open(path)
	if err != nil {
		t.Fatalf("reopening snapshot after shutdown: %v", err)
	}
	defer reopened.Close()
	if int64(reopened.Len()) < got {
		t.Errorf("snapshot holds %d objects, but %d inserts were acknowledged", reopened.Len(), got)
	}
	if err := reopened.Validate(); err != nil {
		t.Errorf("snapshot failed validation after shutdown: %v", err)
	}
}

// TestShutdownRefusesNewRequests checks the drain gate.
func TestShutdownRefusesNewRequests(t *testing.T) {
	s := newTestServer(t, Config{Engine: NewTreeEngine(buildTree(t, 10), false)})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	code := post(t, s, "/search", SearchRequest{Query: RectJSON{Lo: []float64{0, 0}, Hi: []float64{1, 1}}}, nil)
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown /search = %d, want 503", code)
	}
	if code := get(t, s, "/healthz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown /healthz = %d, want 503", code)
	}
}
