// Command cbbload is an open-loop load generator for cbbserve. It replays
// internal/querygen range queries (mixed with inserts) against a running
// server at a target arrival rate: requests are scheduled on a fixed clock
// regardless of completions, so latency includes queue delay and the report
// reflects what clients of a saturated server actually experience — a
// closed-loop generator would hide that by slowing down with the server.
//
// Every response's pinned epoch vector is checked for consistency: it must
// be non-empty, and a worker's sequential requests must observe
// monotonically non-decreasing epochs. Violations are counted and, with
// -strict, fail the run.
//
// Example (against `cbbserve -dataset par02 -n 20000`):
//
//	cbbload -addr http://127.0.0.1:8089 -duration 10s -qps 500 -mix 0.9
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbb/internal/datasets"
	"cbb/internal/geom"
	"cbb/internal/querygen"
	"cbb/internal/server"
	"cbb/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8089", "cbbserve base URL")
		duration = flag.Duration("duration", 10*time.Second, "load duration")
		qps      = flag.Float64("qps", 500, "target arrival rate (requests/second, open loop)")
		workers  = flag.Int("workers", 64, "max concurrent requests")
		mix      = flag.Float64("mix", 0.9, "read fraction (rest are inserts)")
		profile  = flag.String("profile", "qr1", "query profile (qr0, qr1, qr2)")

		dataset = flag.String("dataset", "par02", "dataset the server was loaded with (calibrates queries and inserts)")
		n       = flag.Int("n", 0, "dataset object count (0 = dataset default)")
		seed    = flag.Int64("seed", 42, "dataset seed; the query stream derives from it deterministically")
		data    = flag.String("data", "", "CSV object file the server was loaded with (overrides -dataset)")

		countOnly = flag.Bool("count-only", true, "ask for match counts instead of full result items")
		idBase    = flag.Int64("id-base", 1_000_000_000, "first object ID for generated inserts")
		strict    = flag.Bool("strict", false, "exit non-zero on any error or consistency violation")
	)
	flag.Parse()

	prof, err := parseProfile(*profile)
	if err != nil {
		fatal(err)
	}
	if *qps <= 0 || *duration <= 0 || *workers < 1 || *mix < 0 || *mix > 1 {
		fatal(fmt.Errorf("need -qps > 0, -duration > 0, -workers >= 1, -mix in [0,1]"))
	}

	objects, universe, err := datasets.Load(*data, *dataset, *n, *seed)
	if err != nil {
		fatal(err)
	}
	jobs, err := buildSchedule(objects, universe, scheduleConfig{
		qps: *qps, duration: *duration, mix: *mix, profile: prof,
		seed: *seed, idBase: *idBase, countOnly: *countOnly,
	})
	if err != nil {
		fatal(err)
	}

	res := run(*addr, jobs, *workers)

	shed, scrapeErr := scrapeShed(*addr)
	report(os.Stdout, *qps, *duration, res, shed, scrapeErr)

	if *strict && (res.errors.Load() > 0 || res.violations.Load() > 0) {
		os.Exit(1)
	}
}

// job is one scheduled request. Latency is measured from `at`, the intended
// start time, not from when a worker got around to sending it.
type job struct {
	at    time.Duration // offset from run start
	write bool
	body  []byte // pre-marshaled request body
}

type scheduleConfig struct {
	qps       float64
	duration  time.Duration
	mix       float64
	profile   querygen.Profile
	seed      int64
	idBase    int64
	countOnly bool
}

// buildSchedule pre-generates the full open-loop arrival plan: uniform
// arrivals at the target rate, each slot independently chosen read/write
// from a seeded rng so the stream is reproducible run to run.
func buildSchedule(objects []geom.Rect, universe geom.Rect, cfg scheduleConfig) ([]job, error) {
	total := int(cfg.qps * cfg.duration.Seconds())
	if total < 1 {
		total = 1
	}
	const maxJobs = 4 << 20
	if total > maxJobs {
		return nil, fmt.Errorf("schedule of %d requests exceeds the %d cap; lower -qps or -duration", total, maxJobs)
	}
	gen, err := querygen.New(objects, universe, cfg.seed)
	if err != nil {
		return nil, err
	}
	interval := time.Duration(float64(time.Second) / cfg.qps)
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	insertRng := rand.New(rand.NewSource(cfg.seed + 2))
	nextID := cfg.idBase

	jobs := make([]job, total)
	for i := range jobs {
		jobs[i].at = time.Duration(i) * interval
		if rng.Float64() < cfg.mix {
			q := gen.Query(cfg.profile)
			body, err := json.Marshal(server.SearchRequest{
				Query:     server.RectJSON{Lo: q.Lo, Hi: q.Hi},
				CountOnly: cfg.countOnly,
			})
			if err != nil {
				return nil, err
			}
			jobs[i].body = body
			continue
		}
		// Inserts clone existing objects at fresh IDs, so write load has the
		// same spatial distribution as the dataset.
		src := objects[insertRng.Intn(len(objects))]
		body, err := json.Marshal(server.InsertRequest{
			ID:   nextID,
			Rect: server.RectJSON{Lo: src.Lo, Hi: src.Hi},
		})
		if err != nil {
			return nil, err
		}
		jobs[i].write = true
		jobs[i].body = body
		nextID++
	}
	return jobs, nil
}

type result struct {
	sent       atomic.Int64
	ok         atomic.Int64
	shed       atomic.Int64 // 429 responses
	errors     atomic.Int64 // transport errors + non-2xx/429 statuses
	violations atomic.Int64 // epoch-consistency violations
	readLat    *telemetry.Histogram
	writeLat   *telemetry.Histogram
	elapsed    time.Duration
}

// epochResponse is the slice of any data-plane response cbbload checks.
type epochResponse struct {
	Epochs []uint64 `json:"epochs"`
}

// run dispatches the schedule on its clock and drains it with a bounded
// worker pool. The jobs channel holds the entire schedule, so a slow server
// delays completions, never arrivals.
func run(addr string, jobs []job, workers int) *result {
	res := &result{
		// Zero-value histograms, observed in microseconds (the telemetry
		// buckets are unit-agnostic).
		readLat:  new(telemetry.Histogram),
		writeLat: new(telemetry.Histogram),
	}
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        workers,
			MaxIdleConnsPerHost: workers,
		},
		Timeout: 30 * time.Second,
	}

	ch := make(chan job, len(jobs))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A worker's requests are sequential, so the server guarantees
			// its observed epochs never go backwards; lastEpochs is the
			// running baseline (reset when the shard count changes).
			var lastEpochs []uint64
			for j := range ch {
				lastEpochs = res.execute(client, addr, j, start, lastEpochs)
			}
		}()
	}
	for _, j := range jobs {
		if d := time.Until(start.Add(j.at)); d > 0 {
			time.Sleep(d)
		}
		res.sent.Add(1)
		ch <- j
	}
	close(ch)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

func (res *result) execute(client *http.Client, addr string, j job, start time.Time, lastEpochs []uint64) []uint64 {
	endpoint, hist := "/search", res.readLat
	if j.write {
		endpoint, hist = "/insert", res.writeLat
	}
	resp, err := client.Post(addr+endpoint, "application/json", bytes.NewReader(j.body))
	if err != nil {
		res.errors.Add(1)
		return lastEpochs
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	latency := time.Since(start.Add(j.at))

	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		res.shed.Add(1)
		return lastEpochs
	case resp.StatusCode != http.StatusOK || readErr != nil:
		res.errors.Add(1)
		return lastEpochs
	}
	hist.Observe(latency.Microseconds())
	res.ok.Add(1)

	var er epochResponse
	if err := json.Unmarshal(body, &er); err != nil || len(er.Epochs) == 0 {
		// Every successful data-plane response must carry the pinned
		// snapshot's epoch vector.
		res.violations.Add(1)
		return lastEpochs
	}
	if len(er.Epochs) == len(lastEpochs) {
		for i, e := range er.Epochs {
			if e < lastEpochs[i] {
				res.violations.Add(1)
				return lastEpochs
			}
		}
	}
	return er.Epochs
}

// scrapeShed pulls the server-side shed counter from /metrics, so the
// report shows shedding as the server counted it, not just as 429s the
// client happened to see.
func scrapeShed(addr string) (float64, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "cbbserve_shed_total ") {
			continue
		}
		return strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, "cbbserve_shed_total ")), 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("cbbserve_shed_total not found in /metrics")
}

func report(w io.Writer, qps float64, duration time.Duration, res *result, shed float64, scrapeErr error) {
	fmt.Fprintf(w, "cbbload report\n")
	fmt.Fprintf(w, "  target    %8.0f req/s for %s\n", qps, duration)
	fmt.Fprintf(w, "  achieved  %8.0f req/s (%d ok in %.2fs)\n",
		float64(res.ok.Load())/res.elapsed.Seconds(), res.ok.Load(), res.elapsed.Seconds())
	fmt.Fprintf(w, "  sent %d  ok %d  shed %d  errors %d  epoch violations %d\n",
		res.sent.Load(), res.ok.Load(), res.shed.Load(), res.errors.Load(), res.violations.Load())
	printLatency(w, "read ", res.readLat)
	printLatency(w, "write", res.writeLat)
	if scrapeErr != nil {
		fmt.Fprintf(w, "  server shed (/metrics): unavailable: %v\n", scrapeErr)
	} else {
		fmt.Fprintf(w, "  server shed (/metrics): %.0f\n", shed)
	}
}

func printLatency(w io.Writer, name string, h *telemetry.Histogram) {
	s := h.Summarize()
	if s.Count == 0 {
		fmt.Fprintf(w, "  %s     (no requests)\n", name)
		return
	}
	ms := func(us int64) float64 { return float64(us) / 1000 }
	fmt.Fprintf(w, "  %s p50 %8.3fms  p95 %8.3fms  p99 %8.3fms  max %8.3fms  (%d reqs)\n",
		name, ms(s.P50), ms(s.P95), ms(s.P99), ms(s.Max), s.Count)
}

func parseProfile(name string) (querygen.Profile, error) {
	switch strings.ToLower(name) {
	case "qr0":
		return querygen.QR0, nil
	case "qr1":
		return querygen.QR1, nil
	case "qr2":
		return querygen.QR2, nil
	}
	return 0, fmt.Errorf("unknown profile %q (want qr0, qr1, or qr2)", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbbload:", err)
	os.Exit(1)
}
