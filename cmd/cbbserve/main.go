// Command cbbserve exposes a live clipped-bounding-box tree over an HTTP
// JSON API (see internal/server for the endpoint contract). It boots an
// engine from a synthetic dataset, a datagen CSV, or an existing snapshot
// file, serves until SIGINT/SIGTERM, then drains in-flight requests within
// a deadline and flushes and closes the tree.
//
// Examples:
//
//	cbbserve -addr :8089 -dataset par02 -n 20000
//	cbbserve -addr :8089 -data objects.csv -shards 8
//	cbbserve -addr :8089 -file tree.cbb -buffer-pool 1024
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on DefaultServeMux; served only behind -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cbb"
	"cbb/internal/datasets"
	"cbb/internal/server"
)

func main() {
	var (
		addr = flag.String("addr", ":8089", "listen address")

		dataset = flag.String("dataset", "", "synthetic dataset to load (see cmd/datagen; e.g. par02)")
		n       = flag.Int("n", 0, "synthetic object count (0 = dataset default)")
		seed    = flag.Int64("seed", 42, "synthetic dataset seed")
		data    = flag.String("data", "", "CSV object file to load (datagen format: lo...,hi... per line)")
		file    = flag.String("file", "", "snapshot file: opened if it exists, created and bulk-loaded otherwise (single tree only)")

		variant    = flag.String("variant", "rr*", "R-tree variant (qr, hr, r*, rr*)")
		clip       = flag.String("clip", "csta", "clipping method (csta, csky, none)")
		shards     = flag.Int("shards", 0, "shard count for a ShardedTree engine (0 = single tree)")
		bufferPool = flag.Int("buffer-pool", 0, "buffer-pool capacity in pages for file-backed trees (0 = none)")

		inflight     = flag.Int("inflight", 0, "max concurrently served data requests (0 = default 256, <0 = unlimited)")
		queueTimeout = flag.Duration("queue-timeout", 0, "max wait for an in-flight slot before shedding with 429 (0 = default 50ms)")
		coalesce     = flag.Bool("coalesce", true, "answer /search requests that arrive while another is being answered as one batch on one pinned view (there is no window: a lone request never waits)")
		coalesceMax  = flag.Int("coalesce-max", 0, "max point searches per coalesced batch (0 = default 64)")
		workers      = flag.Int("workers", 1, "worker goroutines per batch search (0 = GOMAXPROCS)")
		drain        = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
	)
	flag.Parse()

	// Profiling is opt-in and served on its own listener so the data API's
	// in-flight limiting and shedding never apply to (or get skewed by)
	// profile scrapes, and the debug surface is never exposed on the public
	// address by accident.
	if *pprofAddr != "" {
		pl, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof listener: %w", err))
		}
		log.Printf("cbbserve: pprof on http://%s/debug/pprof/", pl.Addr())
		go func() {
			// http.DefaultServeMux carries the net/http/pprof handlers via
			// the blank import.
			if err := http.Serve(pl, nil); err != nil {
				log.Printf("cbbserve: pprof server stopped: %v", err)
			}
		}()
	}

	eng, desc, err := buildEngine(engineConfig{
		dataset: *dataset, n: *n, seed: *seed, data: *data, file: *file,
		variant: *variant, clip: *clip, shards: *shards, bufferPool: *bufferPool,
	})
	if err != nil {
		fatal(err)
	}

	cfg := server.Config{
		Engine:           eng,
		InFlightLimit:    *inflight,
		QueueTimeout:     *queueTimeout,
		CoalesceMaxBatch: *coalesceMax,
		SearchWorkers:    *workers,
	}
	if !*coalesce {
		cfg.CoalesceWindow = -1
	}
	s, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("cbbserve: listening on %s (%s, %d objects, height %d)", l.Addr(), desc, eng.Len(), eng.Stats().Height)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	select {
	case err := <-serveErr:
		if err != nil {
			fatal(err)
		}
		return
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard
	log.Printf("cbbserve: signal received, draining (deadline %s)", *drain)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(shutdownCtx); err != nil {
		fatal(fmt.Errorf("shutdown: %w", err))
	}
	if err := <-serveErr; err != nil {
		fatal(err)
	}
	log.Printf("cbbserve: drained and closed")
}

type engineConfig struct {
	dataset    string
	n          int
	seed       int64
	data       string
	file       string
	variant    string
	clip       string
	shards     int
	bufferPool int
}

// buildEngine boots the serving engine: an existing snapshot file is opened
// as-is; otherwise objects come from -data CSV or a synthetic -dataset and
// are bulk-loaded into a fresh (optionally file-backed, optionally sharded)
// tree.
func buildEngine(cfg engineConfig) (server.Engine, string, error) {
	variant, err := parseVariant(cfg.variant)
	if err != nil {
		return nil, "", err
	}
	clip, err := parseClip(cfg.clip)
	if err != nil {
		return nil, "", err
	}

	if cfg.file != "" && cfg.shards > 0 {
		return nil, "", fmt.Errorf("-file is only supported with -shards 0 (single tree)")
	}

	// Re-opening an existing snapshot needs no dataset at all.
	if cfg.file != "" {
		if _, statErr := os.Stat(cfg.file); statErr == nil {
			tree, err := cbb.Open(cfg.file)
			if err != nil {
				return nil, "", err
			}
			if cfg.bufferPool > 0 {
				tree.AttachBufferPool(cfg.bufferPool)
			}
			return server.NewTreeEngine(tree, true), fmt.Sprintf("snapshot %s", cfg.file), nil
		}
	}

	objects, universe, desc, err := loadObjects(cfg)
	if err != nil {
		return nil, "", err
	}
	items := make([]cbb.Item, len(objects))
	for i, r := range objects {
		items[i] = cbb.Item{Object: cbb.ObjectID(i), Rect: r}
	}
	opts := cbb.Options{
		Dims:     objects[0].Dims(),
		Variant:  variant,
		Clipping: clip,
		Universe: universe,
	}
	start := time.Now() // the objects are in memory: what follows is the index build

	if cfg.shards > 0 {
		st, err := cbb.NewSharded(cbb.ShardedOptions{Options: opts, Shards: cfg.shards})
		if err != nil {
			return nil, "", err
		}
		if err := st.InsertItems(items); err != nil {
			return nil, "", err
		}
		return server.NewShardedEngine(st, false),
			fmt.Sprintf("%s, %d shards, built in %d ms", desc, cfg.shards, time.Since(start).Milliseconds()), nil
	}

	var tree *cbb.Tree
	persistent := false
	if cfg.file != "" {
		tree, err = cbb.Create(cfg.file, opts)
		persistent = true
		desc = fmt.Sprintf("%s -> %s", desc, cfg.file)
	} else {
		tree, err = cbb.New(opts)
	}
	if err != nil {
		return nil, "", err
	}
	if err := tree.BulkLoad(items); err != nil {
		return nil, "", err
	}
	if persistent {
		if err := tree.Flush(); err != nil {
			return nil, "", err
		}
		if cfg.bufferPool > 0 {
			tree.AttachBufferPool(cfg.bufferPool)
		}
	}
	return server.NewTreeEngine(tree, persistent), fmt.Sprintf("%s, built in %d ms", desc, time.Since(start).Milliseconds()), nil
}

// loadObjects resolves the object source: -data CSV wins, then -dataset,
// with par02 as the out-of-the-box default so `cbbserve` alone boots.
func loadObjects(cfg engineConfig) ([]cbb.Rect, cbb.Rect, string, error) {
	if cfg.data != "" {
		f, err := os.Open(cfg.data)
		if err != nil {
			return nil, cbb.Rect{}, "", err
		}
		defer f.Close()
		objects, err := datasets.ReadCSV(f)
		if err != nil {
			return nil, cbb.Rect{}, "", err
		}
		return objects, datasets.BoundingUniverse(objects), fmt.Sprintf("csv %s", cfg.data), nil
	}
	name := cfg.dataset
	if name == "" {
		name = "par02"
	}
	objects, err := datasets.Generate(name, cfg.n, cfg.seed)
	if err != nil {
		return nil, cbb.Rect{}, "", err
	}
	universe, err := datasets.Universe(name)
	if err != nil {
		return nil, cbb.Rect{}, "", err
	}
	return objects, universe, fmt.Sprintf("dataset %s seed %d", name, cfg.seed), nil
}

func parseVariant(name string) (cbb.Variant, error) {
	switch strings.ToLower(name) {
	case "qr-tree", "qr", "quadratic":
		return cbb.QRTree, nil
	case "hr-tree", "hr", "hilbert":
		return cbb.HRTree, nil
	case "r*-tree", "r*", "rstar":
		return cbb.RStarTree, nil
	case "rr*-tree", "rr*", "rrstar":
		return cbb.RRStarTree, nil
	}
	return 0, fmt.Errorf("unknown variant %q (want qr, hr, r*, or rr*)", name)
}

func parseClip(name string) (cbb.ClipMethod, error) {
	switch strings.ToLower(name) {
	case "csta", "stairline":
		return cbb.ClipStairline, nil
	case "csky", "skyline":
		return cbb.ClipSkyline, nil
	case "none", "off":
		return cbb.ClipNone, nil
	}
	return 0, fmt.Errorf("unknown clip method %q (want csta, csky, or none)", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbbserve:", err)
	os.Exit(1)
}
