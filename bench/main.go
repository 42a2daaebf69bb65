// Command bench is the repository's benchmark: five named workloads driven
// end to end against the public cbb surface (and, for one of them, a real
// loopback socket), a correctness oracle that feeds the failure count, and a
// separate traced run that times every layer from outside. See README.md in
// this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench                          # all five workloads, 12 s windows
//	go run ./bench -workload mem-query      # one workload
//	go run ./bench -trace 1 -workload serve-mixed -trace-out spans.jsonl
//	go run ./bench -compare A.json B.json   # two result sets written with -out
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// driverProcs is the GOMAXPROCS every run pins: generator and program under
// test share two cores, which is also why every loop is closed (README).
const driverProcs = 2

// config is one invocation's settings; the zero value of a field means "not
// given", defaults are applied by the flag definitions in parseFlags.
type config struct {
	workload string  // "" runs all five
	seed     int64   // drives datasets, query streams and write streams
	seconds  float64 // measured window per workload
	trace    int     // 0: end-to-end run; 1: traced per-layer run
	traceOut string  // span file of a traced run ("" writes none)
	out      string  // result-set file this run is appended to
	scale    float64 // object-count multiplier; smoke tests run at toy scale
	tmp      string  // parent of the run's one temporary directory
	compare  bool
}

func parseFlags(args []string, stderr io.Writer) (config, []string, error) {
	var cfg config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+"); default all")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; 2 is the documented hold-out seed")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "measured window per workload, seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "1 runs the shorter traced run that reports the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "write the traced run's spans to this file (JSON lines)")
	fs.StringVar(&cfg.out, "out", "", "append this run to a result-set file (JSON) for -compare")
	fs.Float64Var(&cfg.scale, "scale", 1, "object-count multiplier (smoke tests use a toy scale)")
	fs.StringVar(&cfg.tmp, "tmp", ".", "directory the run's temporary directory is created in")
	fs.BoolVar(&cfg.compare, "compare", false, "compare two result sets: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return cfg, nil, err
	}
	switch {
	case cfg.trace != 0 && cfg.trace != 1:
		return cfg, nil, errors.New("-trace takes 0 or 1")
	case cfg.seconds <= 0 || cfg.scale <= 0:
		return cfg, nil, errors.New("-seconds and -scale must be positive")
	case cfg.workload != "" && findWorkload(cfg.workload) == nil:
		return cfg, nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	return cfg, fs.Args(), nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with its streams injected so the smoke test can drive the
// exact code path `go run ./bench` takes. Exit codes: 0 all correct, 1 a
// workload failed its oracle or a comparison breached a bound, 2 the run
// itself could not complete.
func realMain(args []string, stdout, stderr io.Writer) int {
	cfg, rest, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if cfg.compare {
		if len(rest) != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes exactly two result-set files")
			return 2
		}
		breached, err := compareFiles(rest[0], rest[1], stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if breached {
			return 1
		}
		return 0
	}

	runtime.GOMAXPROCS(driverProcs)
	dir, err := os.MkdirTemp(cfg.tmp, ".bench-tmp-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	selected := workloads
	if cfg.workload != "" {
		selected = []*workload{findWorkload(cfg.workload)}
	}
	env := fingerprint()
	var spans []span
	code := 0
	for _, w := range selected {
		rc := &runCtx{cfg: cfg, dir: dir, tally: &tally{}}
		if cfg.trace == 1 {
			rc.tr = &tracer{workload: w.name}
		}
		rec, err := runWorkload(w, rc)
		if err != nil {
			// No result line: the run itself broke (missing source, I/O
			// error), which is not a measured failure.
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		rec.Env = env
		printRecord(stdout, rec)
		if cfg.out != "" {
			if err := appendRun(cfg.out, rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 2
			}
		}
		if rc.tr != nil {
			spans = append(spans, rc.tr.resolved()...)
		}
		if rec.Failed > 0 {
			code = 1
		}
		// The contract's result line: exactly these keys, last on stdout
		// (last per workload when several run).
		line, _ := json.Marshal(resultLine{
			Correct:   rec.Failed == 0,
			Attempted: rec.Attempted,
			Failed:    rec.Failed,
			Metrics:   rec.contractMetrics(),
		})
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 2
		}
	}
	return code
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envInfo is the environment fingerprint recorded with every run: a number
// is only comparable with another taken on the same fingerprint.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OSArch     string `json:"os_arch"`
}

func fingerprint() envInfo {
	env := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The toolchain stamps the commit when the build runs inside a git work
	// tree; an exported checkout has none and records "unknown".
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// runRecord is everything one workload run produced; result-set files are
// lists of these.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Scale     float64                `json:"scale"`
	Env       envInfo                `json:"env"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"` // sample count behind each percentile or median
	Info      map[string]any         `json:"info"`    // op counts, object counts, shard lengths, phase durations, policies
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
}

// contractMetrics is the metric set of the result line: every metric
// BENCHMARK.json declares for this kind of run, and nothing else.
func (r *runRecord) contractMetrics() map[string]metricValue {
	defs := contractEndToEnd()
	if r.Trace == 1 {
		defs = perLayer
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if v, ok := r.Metrics[d.name]; ok {
			out[d.name] = v
		}
	}
	return out
}

func printRecord(w io.Writer, r *runRecord) {
	kind := "end-to-end, tracing off"
	if r.Trace == 1 {
		kind = "traced per-layer run"
	}
	fmt.Fprintf(w, "== %s (%s; seed %d, %.3g s window, scale %.3g, GOMAXPROCS %d of %d cores, %s, %s, commit %s)\n",
		r.Workload, kind, r.Seed, r.Seconds, r.Scale, r.Env.GOMAXPROCS, r.Env.NProc, r.Env.CPU, r.Env.GoVersion, r.Env.Commit)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		samples := ""
		if n, ok := r.Samples[name]; ok {
			samples = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(w, "  %-38s %16.4f %-6s%s\n", name, v.Value, v.Unit, samples)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  # %s: %v\n", k, r.Info[k])
	}
	fmt.Fprintf(w, "  # attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  ! %s\n", f)
	}
}

// resultSet is the on-disk form of -out: every run appended in order, so a
// 3-run set is three invocations with the same -out.
type resultSet struct {
	Runs []*runRecord `json:"runs"`
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

func appendRun(path string, rec *runRecord) error {
	rs, err := readResultSet(path)
	if errors.Is(err, os.ErrNotExist) {
		rs, err = &resultSet{}, nil
	}
	if err != nil {
		return err
	}
	rs.Runs = append(rs.Runs, rec)
	b, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runCtx is what a workload gets from the harness.
type runCtx struct {
	cfg   config
	dir   string  // the run's temporary directory
	tally *tally  // attempted / failed operations and oracle verdicts
	tr    *tracer // nil unless this is the traced run

	// Set-up is repeated on identical inputs, so the oracle's expensive half
	// (twin index, scans of the item slice) runs in the first set-up only and
	// its expected counts are kept for the later ones.
	want       []int32
	oracleDone bool
}

// scaled applies -scale to an object count, keeping toy runs non-degenerate.
func (rc *runCtx) scaled(n int) int {
	n = int(float64(n) * rc.cfg.scale)
	if n < 500 {
		n = 500
	}
	return n
}

func (rc *runCtx) window(share float64) time.Duration {
	return time.Duration(share * rc.cfg.seconds * float64(time.Second))
}
