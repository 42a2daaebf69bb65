package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Every timing is estimated over sub-windows of the measured window:
// fineSlices equal time slices of a continuous loop, or, where a workload
// interleaves several phases in maxSubWindows rounds, roundSlices slices of
// each round's turn. A figure is taken per sub-window. On the shared hosts
// this runs on, a neighbour's memory traffic slows stretches of a tenth of a
// second to minutes by 20 to 100 %, and only ever slows: so the estimator
// reports the figure goodShare of the way in from the good end (the 4th
// fastest of 40 sub-windows for a latency, the 4th highest for a rate),
// which is the program's speed on the machine when it is left alone, and
// what a change to the program moves. Sub-windows are about one pass of the
// query stream long, so they differ in when they ran, not in what they ran.
// A percentile p needs ten samples beyond it in every sub-window; with
// fewer, neighbouring sub-windows are merged, halving their number until the
// whole window is one.
const (
	maxSubWindows = 10
	roundSlices   = 4
	fineSlices    = maxSubWindows * roundSlices
	goodShare     = 0.1
)

// samplesFor is the fewest samples a sub-window needs to support percentile p.
func samplesFor(p float64) int { return int(math.Ceil(10 / (1 - p))) }

// goodEnd picks the value goodShare of the way into v from its good end: the
// low end when lower is better, the high end otherwise (nearest rank, so the
// best of up to ten values).
func goodEnd(v []float64, lowerIsBetter bool) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if !lowerIsBetter {
		slices.Reverse(s)
	}
	return s[int(math.Ceil(goodShare*float64(len(s))))-1]
}

// recorder keeps one latency and one completion time per operation, in
// storage sized before timing starts.
type recorder struct {
	start time.Time
	lat   []uint32 // ns; an operation longer than 4.29 s saturates
	end   []int64  // ns since start
}

func newRecorder(start time.Time, capacity int) *recorder {
	return &recorder{start: start, lat: make([]uint32, 0, capacity), end: make([]int64, 0, capacity)}
}

func (r *recorder) add(from, to time.Time) {
	d := to.Sub(from)
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	r.lat = append(r.lat, uint32(d))
	r.end = append(r.end, int64(to.Sub(r.start)))
}

// loop calls op back to back until stop says so, recording every call. The
// clock is read once per call: the end of call i is the start of call i+1.
// With a tracer switched on each call also becomes a span.
func (r *recorder) loop(tr *tracer, name string, stop func(i int, now time.Time) bool, op func(i int)) {
	prev := time.Now()
	for i := 0; ; i++ {
		op(i)
		now := time.Now()
		r.add(prev, now)
		if tr.on() {
			tr.record(name, int64(i), prev, now)
		}
		if stop(i, now) {
			return
		}
		prev = now
	}
}

// runFor loops for d.
func (r *recorder) runFor(tr *tracer, name string, d time.Duration, op func(i int)) {
	deadline := time.Now().Add(d)
	r.loop(tr, name, func(_ int, now time.Time) bool { return !now.Before(deadline) }, op)
}

// runCount loops n times.
func (r *recorder) runCount(tr *tracer, name string, n int, op func(i int)) {
	r.loop(tr, name, func(i int, _ time.Time) bool { return i+1 >= n }, op)
}

// runUntil loops until done is set (by the goroutine whose fixed amount of
// work defines the window).
func (r *recorder) runUntil(tr *tracer, name string, done *atomic.Bool, op func(i int)) {
	r.loop(tr, name, func(int, time.Time) bool { return done.Load() }, op)
}

// subWindow is the samples of one sub-window and the time they took.
type subWindow struct {
	lat     []uint32
	seconds float64
}

// whole is the recorder as one sub-window (one round of one phase).
func (r *recorder) whole() subWindow {
	if len(r.end) == 0 {
		return subWindow{}
	}
	first := r.end[0] - int64(r.lat[0])
	return subWindow{lat: r.lat, seconds: float64(r.end[len(r.end)-1]-first) / 1e9}
}

// timeSlices cuts the time the recorders cover into n equal slices, merging
// recorders started at the same instant (two client connections).
func timeSlices(n int64, recs ...*recorder) []subWindow {
	var last int64
	for _, r := range recs {
		if c := len(r.end); c > 0 && r.end[c-1] > last {
			last = r.end[c-1]
		}
	}
	out := make([]subWindow, n)
	for k := range out {
		out[k].seconds = float64(last) / 1e9 / float64(n)
	}
	for _, r := range recs {
		for i, e := range r.end {
			k := e * n / (last + 1)
			out[k].lat = append(out[k].lat, r.lat[i])
		}
	}
	return out
}

// summary is the estimate over a window's sub-windows.
type summary struct {
	n             int
	p50, p95, p99 float64 // ns
	rate          float64 // operations per second
	seconds       float64 // time the samples took, gaps between rounds excluded
	used          [3]int  // sub-windows behind p50, p95, p99
}

// summarize applies the sub-window estimator.
func summarize(subs []subWindow) summary {
	var s summary
	for _, w := range subs {
		s.n += len(w.lat)
		s.seconds += w.seconds
	}
	if s.n == 0 {
		return s
	}
	// merged folds the sub-windows into k groups of neighbours, or reports
	// that one group would hold fewer than need samples.
	merged := func(k, need int) ([]subWindow, bool) {
		out := make([]subWindow, k)
		for i, w := range subs {
			g := i * k / len(subs)
			if len(subs) == k {
				out[g] = w
				continue
			}
			out[g].lat = append(out[g].lat, w.lat...)
			out[g].seconds += w.seconds
		}
		for _, g := range out {
			if len(g.lat) < need {
				return out, false
			}
		}
		return out, true
	}
	pct := func(p float64) (float64, int) {
		for k := len(subs); ; k /= 2 {
			// Too few samples even unsliced: report what there is.
			groups, ok := merged(k, samplesFor(p))
			if !ok && k > 1 {
				continue
			}
			per := make([]float64, k)
			for g := range groups {
				per[g] = percentile(groups[g].lat, p)
			}
			return goodEnd(per, true), k
		}
	}
	s.p50, s.used[0] = pct(0.50)
	s.p95, s.used[1] = pct(0.95)
	s.p99, s.used[2] = pct(0.99)
	// Rates over the same groups the median uses.
	groups, _ := merged(s.used[0], 0)
	rates := make([]float64, len(groups))
	for g := range groups {
		rates[g] = float64(len(groups[g].lat)) / groups[g].seconds
	}
	s.rate = goodEnd(rates, false)
	return s
}

// percentile is the nearest-rank percentile; it sorts v in place.
func percentile(v []uint32, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	if !slices.IsSorted(v) {
		slices.Sort(v)
	}
	i := int(math.Ceil(p*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(v[i])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func nanos(v []time.Duration) []float64 {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return f
}

func medianDur(v []time.Duration) float64 { return median(nanos(v)) }

// heapAlloc is the live Go heap after a full collection. Two cycles: the
// first may only queue finalizers and empty sync.Pools.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mallocs reads the allocation counters around a ladder rung.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// tally counts attempted and failed operations and keeps the first few
// failure messages. A failure is an operation that errored, was refused, or
// whose answer the oracle rejected.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	msgs      []string
}

// add folds in counts a timed loop kept locally; the message is kept when
// any of them failed.
func (t *tally) add(attempted, failed int64, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += attempted
	t.failed += failed
	if failed > 0 && len(t.msgs) < 10 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation and, when ok is false, one failure.
func (t *tally) check(ok bool, format string, args ...any) {
	failed := int64(0)
	if !ok {
		failed = 1
	}
	t.add(1, failed, format, args...)
}

// measurements is what a workload's measured window hands back.
type measurements struct {
	values  map[string]float64
	samples map[string]int
	info    map[string]any
}

func newMeasurements() *measurements {
	return &measurements{values: map[string]float64{}, samples: map[string]int{}, info: map[string]any{}}
}

func (m *measurements) set(name string, v float64) { m.values[name] = v }

func (m *measurements) setN(name string, v float64, n int) {
	m.values[name] = v
	m.samples[name] = n
}

// reads files the three read metrics every workload reports.
func (m *measurements) reads(s summary) {
	m.setN("read_p50_us", s.p50/1e3, s.n)
	m.setN("read_p99_us", s.p99/1e3, s.n)
	m.setN("read_ops_per_s", s.rate, s.n)
	m.info["read_seconds"] = s.seconds
	m.info["read_subwindows_p50_p95_p99"] = s.used
}

// writes files the three write metrics; items is the batch size of one
// acknowledged write.
func (m *measurements) writes(s summary, items int) {
	m.setN("write_p50_us", s.p50/1e3, s.n)
	m.setN("write_p95_us", s.p95/1e3, s.n)
	m.setN("write_items_per_s", s.rate*float64(items), s.n)
	m.info["write_seconds"] = s.seconds
	m.info["write_subwindows_p50_p95_p99"] = s.used
	m.info["write_ops"] = s.n
	m.info["write_items_per_op"] = items
}

// instance is a set-up workload: inputs generated, engine built and warm.
type instance interface {
	// common returns the bookkeeping every workload shares.
	common() *setupState
	// objects is the number of indexed objects right now.
	objects() int
	// measure runs the timed window. It keeps its recorders to itself, so
	// nothing it allocated is live when the harness reads the heap.
	measure(rc *runCtx, m *measurements) error
	// readOp is the workload's end-to-end read operation on its own (name
	// and loop body over the cycling stream), for the traced run's overhead
	// replay. Failures are counted when verify runs.
	readOp() (name string, op func(i int))
	// verify runs the after-window half of the oracle (never timed). It may
	// close and reopen the engine.
	verify(rc *runCtx, m *measurements) error
	// close releases files, listeners and goroutines; safe after verify.
	close() error
}

// setupState is filled in by a workload's setup.
type setupState struct {
	in *inputs
	// heapBase is heapAlloc read after input generation, before the engine
	// exists: heap_bytes_per_object is growth over it.
	heapBase uint64
	// untimed is harness work done inside setup that is no part of set-up as
	// a user would see it: the oracle's twin index and scans, heap readings.
	untimed time.Duration
	// leafReads is LeafReads ÷ queries over exactly one single-threaded pass
	// of the range stream (the warm-up pass), so it repeats exactly.
	leafReads float64
	// replayBad counts oracle rejections in the traced run's readOp replay.
	replayBad int64
}

func (s *setupState) common() *setupState { return s }

// offTheClock runs harness work inside setup without charging setup_s.
func (s *setupState) offTheClock(fn func()) {
	t0 := time.Now()
	fn()
	s.untimed += time.Since(t0)
}

// Set-up is repeated so setup_s can be the fastest of up to three, but not
// past a time budget: the 3-D clip build of file-query alone takes seconds.
const (
	maxSetups   = 3
	setupBudget = 6 * time.Second
)

// runWorkload is the harness: repeated set-up, then either the end-to-end
// window with its oracle or the traced per-layer run.
func runWorkload(w *workload, rc *runCtx) (*runRecord, error) {
	var (
		inst   instance
		setups []float64
		spent  time.Duration
	)
	for {
		t0 := time.Now()
		var err error
		inst, err = w.setup(rc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rc.oracleDone = true
		d := time.Since(t0) - inst.common().untimed
		setups = append(setups, d.Seconds())
		spent += d
		if rc.tr != nil || len(setups) == maxSetups || spent > setupBudget {
			break
		}
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("close between set-ups: %w", err)
		}
	}
	defer inst.close()

	m := newMeasurements()
	if rc.tr != nil {
		if err := tracedRun(rc, inst, m); err != nil {
			return nil, err
		}
	} else {
		if err := inst.measure(rc, m); err != nil {
			return nil, fmt.Errorf("measured window: %w", err)
		}
		st := inst.common()
		objects := inst.objects()
		heap := heapAlloc()
		m.setN("setup_s", goodEnd(setups, true), len(setups))
		m.set("heap_bytes_per_object", (float64(heap)-float64(st.heapBase))/float64(objects))
		m.set("leaf_reads_per_query", st.leafReads)
		m.info["objects"] = objects
		m.info["setup_runs_s"] = setups
		m.info["range_stream_queries"] = len(st.in.ranges)
		if err := inst.verify(rc, m); err != nil {
			return nil, fmt.Errorf("after-window checks: %w", err)
		}
		m.set("failed_share", float64(rc.tally.failed)/float64(max(rc.tally.attempted, 1)))
	}

	rec := &runRecord{
		Workload:  w.name,
		Trace:     rc.cfg.trace,
		Seed:      rc.cfg.seed,
		Seconds:   rc.cfg.seconds,
		Scale:     rc.cfg.scale,
		Metrics:   map[string]metricValue{},
		Samples:   m.samples,
		Info:      m.info,
		Attempted: rc.tally.attempted,
		Failed:    rc.tally.failed,
		Failures:  rc.tally.msgs,
	}
	defs := endToEnd
	if rc.tr != nil {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := m.values[d.name]
		if ok != d.appliesTo(w.name) {
			return nil, fmt.Errorf("metric %s: reported=%v but declared=%v for this workload", d.name, ok, d.appliesTo(w.name))
		}
		if ok {
			rec.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	if len(rec.Metrics) != len(m.values) {
		return nil, fmt.Errorf("workload reported a metric the catalogue does not declare: %v", m.values)
	}
	return rec, nil
}
