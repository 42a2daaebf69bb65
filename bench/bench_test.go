package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesCatalogue keeps the declaration the PR driver reads
// and the one the program emits from drifting apart.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if got := strings.Join(b.Command, " "); got != "go run ./bench" {
		t.Errorf("command = %q", got)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the catalogue %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the catalogue %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []declared, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the catalogue %s/%s/%s", kind, i, g, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the catalogue's %v", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, contractEndToEnd(), true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func TestNamesAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is malformed", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
		if d.bound < 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", d.name, d.bound)
		}
		for _, w := range d.workloads {
			if findWorkload(w) == nil {
				t.Errorf("metric %s names unknown workload %q", d.name, w)
			}
		}
	}
}

// toyArgs runs a workload at about a hundredth of its size with a window
// well under a second.
func toyArgs(t *testing.T, extra ...string) []string {
	return append([]string{"-seconds", "0.4", "-scale", "0.012", "-tmp", t.TempDir()}, extra...)
}

// runToy drives the same entry point `go run ./bench` does and returns the
// parsed result line and the run as -out recorded it.
func runToy(t *testing.T, args ...string) (resultLine, *runRecord) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "set.json")
	var stdout, stderr bytes.Buffer
	code := realMain(append(toyArgs(t, "-out", out), args...), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line of stdout is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	rs, err := readResultSet(out)
	if err != nil || len(rs.Runs) != 1 {
		t.Fatalf("result set: %v, %d runs", err, len(rs.Runs))
	}
	return line, rs.Runs[0]
}

func checkLine(t *testing.T, line resultLine, want []metricDef) {
	t.Helper()
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("result line: correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("result line carries %d metrics, BENCHMARK.json declares %d", len(line.Metrics), len(want))
	}
	for _, d := range want {
		v, ok := line.Metrics[d.name]
		if !ok || v.Unit != d.unit {
			t.Errorf("result line: metric %s missing or in unit %q, want %q", d.name, v.Unit, d.unit)
		}
	}
}

// TestWorkloadsAtToyScale runs every workload end to end: the oracle must
// pass, the result line must carry exactly the declared metrics, and the
// recorded run every end-to-end metric declared for that workload.
func TestWorkloadsAtToyScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == wlServe {
				t.Skip("needs a loopback socket")
			}
			line, rec := runToy(t, "-workload", w.name)
			checkLine(t, line, contractEndToEnd())
			for _, d := range contractEndToEnd() {
				if line.Metrics[d.name].Value == 0 {
					t.Errorf("metric %s reads 0; the driver divides by it", d.name)
				}
			}
			for _, d := range endToEnd {
				if _, ok := rec.Metrics[d.name]; ok != d.appliesTo(w.name) {
					t.Errorf("recorded run: metric %s present=%v, declared=%v", d.name, ok, d.appliesTo(w.name))
				}
			}
			if rec.Env.GOMAXPROCS != driverProcs || rec.Env.GoVersion == "" || rec.Seed != 1 || rec.Info["objects"] == nil {
				t.Errorf("recorded run lacks its fingerprint: %+v", rec)
			}
		})
	}
}

// TestTracedRunAtToyScale runs the ladder and both decorators once and checks
// that every per-layer metric comes out and the span file nests.
func TestTracedRunAtToyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("the ladder's serving rungs need a loopback socket")
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	line, _ := runToy(t, "-workload", wlServe, "-trace", "1", "-trace-out", spans)
	checkLine(t, line, perLayer)
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int64]span{}
	var all []span
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(l), &s); err != nil {
			t.Fatalf("span file: %v: %s", err, l)
		}
		byID[s.Span] = s
		all = append(all, s)
	}
	nested := map[string]int{}
	for _, s := range all {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.StartNS > s.StartNS || p.EndNS < s.EndNS || p.Op != s.Op {
			t.Fatalf("span %+v is not inside its parent %+v", s, p)
		}
		nested[s.Name]++
	}
	for _, name := range []string{"Engine.Snapshot", "ReadView.Search", "ReadView.BatchSearch", "Engine.Apply", "PageStore.Read"} {
		if nested[name] == 0 {
			t.Errorf("no %s span nested under a driver operation", name)
		}
	}
}

func TestEstimator(t *testing.T) {
	forty := make([]float64, 40)
	for i := range forty {
		forty[i] = float64((i*7)%40 + 1) // 1..40, shuffled
	}
	if got := goodEnd(forty, true); got != 4 {
		t.Errorf("good end of 1..40, lower better = %v, want 4", got)
	}
	if got := goodEnd(forty, false); got != 37 {
		t.Errorf("good end of 1..40, higher better = %v, want 37", got)
	}
	if got := goodEnd([]float64{3, 1, 2}, true); got != 1 {
		t.Errorf("good end of three = %v, want the fastest", got)
	}
	// Ten sub-windows of 30 samples each: enough for p50 per sub-window (20),
	// too few for p95 (200) even merged into two of 150, so p95 comes from
	// the whole window; p99 (1000) has too few even there and reports what
	// there is.
	subs := make([]subWindow, maxSubWindows)
	for k := range subs {
		for i := 0; i < 30; i++ {
			subs[k].lat = append(subs[k].lat, uint32(100*(k+1)+i))
		}
		subs[k].seconds = 1
	}
	s := summarize(subs)
	if s.used != [3]int{10, 1, 1} {
		t.Errorf("sub-windows used = %v, want [10 1 1]", s.used)
	}
	if s.p50 != 114 { // the fastest sub-window's median
		t.Errorf("p50 = %v, want 114", s.p50)
	}
	if s.rate != 30 || s.n != 300 || s.seconds != 10 {
		t.Errorf("rate %v n %v seconds %v", s.rate, s.n, s.seconds)
	}
	// timeSlices: two recorders on one clock, samples land in the slice their
	// completion time falls in.
	a, b := newRecorder(time.Time{}, 4), newRecorder(time.Time{}, 4)
	a.lat, a.end = []uint32{1, 2}, []int64{10, 60}
	b.lat, b.end = []uint32{3, 4}, []int64{40, 99}
	got := timeSlices(2, a, b)
	if len(got) != 2 || len(got[0].lat) != 2 || len(got[1].lat) != 2 || got[0].seconds != 99e-9/2 {
		t.Errorf("timeSlices = %+v", got)
	}
}

func TestCompare(t *testing.T) {
	set := func(scale map[string]float64, jitter float64) string {
		var rs resultSet
		for _, w := range workloads {
			for run := 0; run < minRunsPerSet; run++ {
				rec := &runRecord{Workload: w.name, Metrics: map[string]metricValue{}}
				for _, d := range endToEnd {
					if !d.appliesTo(w.name) {
						continue
					}
					v := 100.0 * (1 + jitter*float64(run-1))
					if d.name == "failed_share" {
						v = 0
					}
					if f, ok := scale[d.name]; ok {
						v *= f
					}
					rec.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
				}
				rs.Runs = append(rs.Runs, rec)
			}
		}
		path := filepath.Join(t.TempDir(), "set.json")
		b, _ := json.Marshal(rs)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set(nil, 0.01)
	for _, c := range []struct {
		name     string
		other    string
		breached bool
		mark     string
	}{
		{"same", set(nil, 0.01), false, ""},
		{"slower read", set(map[string]float64{"read_p50_us": 1.5}, 0.01), true, "BREACH"},
		{"fewer ops", set(map[string]float64{"read_ops_per_s": 0.5}, 0.01), true, "BREACH"},
		{"more ops is better", set(map[string]float64{"read_ops_per_s": 1.5}, 0.01), false, ""},
		{"noisy", set(nil, 0.3), false, "unresolved"},
	} {
		var out bytes.Buffer
		breached, err := compareFiles(base, c.other, &out)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if breached != c.breached || (c.mark != "" && !strings.Contains(out.String(), c.mark)) {
			t.Errorf("%s: breached=%v, want %v with mark %q\n%s", c.name, breached, c.breached, c.mark, out.String())
		}
	}
	if code := realMain([]string{"-compare", base}, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
		t.Errorf("-compare with one file: exit code %d, want 2", code)
	}
}
