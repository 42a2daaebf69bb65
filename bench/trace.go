package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cbb"
	"cbb/internal/server"
	"cbb/internal/storage"
)

// The traced run records spans from the benchmark's side of every boundary:
// the driver's own operations (one span per call into the engine or per HTTP
// round trip) and, through two decorators, the calls the serving layer makes
// into its Engine and the page reads a tree makes into its PageStore. Spans
// are held in memory and written out once, at exit.

// span is one timed interval. Spans of one request share op; parent is the
// span that contains this one (0 for a driver operation).
type span struct {
	Workload string `json:"workload"`
	Op       int64  `json:"op"`
	Span     int64  `json:"span"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer's first use
	EndNS    int64  `json:"end_ns"`
	Bytes    int    `json:"bytes,omitempty"` // page reads: payload size

	child bool // recorded by a decorator: op and parent found by containment
}

type tracer struct {
	workload string
	enabled  atomic.Bool

	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// on reports whether spans are being recorded; a nil tracer never records.
func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) append(s span, from, to time.Time) {
	t.mu.Lock()
	if t.epoch.IsZero() {
		t.epoch = from
	}
	s.Workload = t.workload
	s.Span = int64(len(t.spans)) + 1
	s.StartNS, s.EndNS = int64(from.Sub(t.epoch)), int64(to.Sub(t.epoch))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record files a driver operation.
func (t *tracer) record(name string, op int64, from, to time.Time) {
	t.append(span{Name: name, Op: op}, from, to)
}

// begin opens a decorator span and returns the call that closes it (with the
// bytes the decorated call moved, if it counts any). The driver operation it
// belongs to is found later, by containment. Nothing is recorded, and no
// clock is read, while recording is off.
func (t *tracer) begin(name string) func(bytes int) {
	if !t.on() {
		return func(int) {}
	}
	from := time.Now()
	return func(bytes int) {
		t.append(span{Name: name, Bytes: bytes, child: true}, from, time.Now())
	}
}

// mark returns the number of spans so far, to slice one phase's spans out
// with since.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since resolves and returns the spans recorded after mark.
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	resolve(t.spans[mark:])
	return t.spans[mark:]
}

func (t *tracer) resolved() []span { return t.since(0) }

// resolve nests every decorator span under the driver operation whose
// interval contains it: with several candidates (two connections in flight,
// a coalesced batch serving both) the one that started last.
func resolve(spans []span) {
	var ops []int
	for i := range spans {
		if !spans[i].child {
			ops = append(ops, i)
		}
	}
	sort.Slice(ops, func(a, b int) bool { return spans[ops[a]].StartNS < spans[ops[b]].StartNS })
	for i := range spans {
		s := &spans[i]
		if !s.child || s.Parent != 0 {
			continue
		}
		// Last operation starting at or before s, then walk back to one that
		// also ends after it.
		k := sort.Search(len(ops), func(k int) bool { return spans[ops[k]].StartNS > s.StartNS })
		for k--; k >= 0; k-- {
			if p := &spans[ops[k]]; p.EndNS >= s.EndNS {
				s.Parent, s.Op = p.Span, p.Op
				break
			}
		}
	}
}

// durations returns the lengths of the spans called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS))
		}
	}
	return out
}

// selfTimes returns, for every driver operation called name, its duration
// minus the part its child spans cover.
func selfTimes(spans []span, name string) []float64 {
	covered := map[int64]int64{}
	for _, s := range spans {
		if s.child && s.Parent != 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	var out []float64
	for _, s := range spans {
		if !s.child && s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS-covered[s.Span]))
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- decorators -----------------------------------------------------------------

// tracedEngine wraps the server.Engine handed to server.Config: every call
// the serving layer makes into the engine becomes a span.
type tracedEngine struct {
	server.Engine
	tr *tracer
}

func (e tracedEngine) Snapshot() server.ReadView {
	end := e.tr.begin("Engine.Snapshot")
	v := e.Engine.Snapshot()
	end(0)
	return tracedView{ReadView: v, tr: e.tr}
}

func (e tracedEngine) Apply(ops []server.WriteOp) (int, error) {
	defer e.tr.begin("Engine.Apply")(0)
	return e.Engine.Apply(ops)
}

func (e tracedEngine) Close() error {
	defer e.tr.begin("Engine.Close")(0)
	return e.Engine.Close()
}

type tracedView struct {
	server.ReadView
	tr *tracer
}

func (v tracedView) Search(q cbb.Rect, visit func(cbb.ObjectID, cbb.Rect) bool) {
	defer v.tr.begin("ReadView.Search")(0)
	v.ReadView.Search(q, visit)
}

func (v tracedView) BatchSearch(queries []cbb.Rect, opts cbb.BatchOptions) (cbb.BatchResult, error) {
	defer v.tr.begin("ReadView.BatchSearch")(0)
	return v.ReadView.BatchSearch(queries, opts)
}

func (v tracedView) Close() {
	defer v.tr.begin("ReadView.Close")(0)
	v.ReadView.Close()
}

// tracedStore wraps the storage.PageStore handed to
// snapshot.Snapshot.OpenTree: one span and a byte count per page read.
type tracedStore struct {
	storage.PageStore
	tr *tracer
}

func (s tracedStore) Read(id storage.PageID) ([]byte, storage.PageKind, error) {
	end := s.tr.begin("PageStore.Read")
	b, kind, err := s.PageStore.Read(id)
	end(len(b))
	return b, kind, err
}

// --- the traced run -------------------------------------------------------------

// tracedShare is the share of -seconds the traced pass over the workload's
// own driver gets, and again the overhead replay.
const tracedShare = 0.25

// tracedRun produces the per-layer metrics of one workload: one pass of the
// workload's own driver with span recording on (its spans go to the span
// file), the workload's read operation replayed with recording off and on in
// alternating rounds (the difference is trace.overhead_pct), then the layer
// ladder over the workload's inputs.
func tracedRun(rc *runCtx, inst instance, m *measurements) error {
	short := *rc
	short.cfg.seconds = rc.cfg.seconds * tracedShare
	rc.tr.enabled.Store(true)
	err := inst.measure(&short, newMeasurements())
	rc.tr.enabled.Store(false)
	if err != nil {
		return err
	}

	name, op := inst.readOp()
	var subs [2][]subWindow
	at := 0
	for round := 0; round < 2*maxSubWindows; round++ {
		on := round%2 == 1
		rc.tr.enabled.Store(on)
		subs[round%2] = append(subs[round%2], phase(rc, name, short.window(1.0/(2*maxSubWindows)), &at, op)...)
	}
	rc.tr.enabled.Store(false)
	plain, traced := summarize(subs[0]).p50, summarize(subs[1]).p50
	m.set("trace.overhead_pct", 100*(traced-plain)/plain)
	m.info["read_p50_us_untraced"] = plain / 1e3
	m.info["read_p50_us_traced"] = traced / 1e3

	if err := inst.verify(rc, m); err != nil {
		return err
	}
	in := inst.common().in
	// The ladder builds its own engines; release the workload's first.
	if err := inst.close(); err != nil {
		return err
	}
	if err := runLadder(rc, in, m); err != nil {
		return err
	}
	m.info["spans"] = rc.tr.mark()
	return nil
}
