// Command cbbench reproduces the paper's evaluation: it runs any (or all) of
// the experiments behind the tables and figures of Šidlauskas et al.,
// "Improving Spatial Data Processing by Clipping Minimum Bounding Boxes"
// (ICDE 2018), on the synthetic stand-in datasets, and prints the results as
// text tables.
//
// Usage:
//
//	cbbench -exp all                 # run everything at the default scale
//	cbbench -exp fig11 -scale 50000  # range-query I/O at a larger scale
//	cbbench -exp table1 -datasets rea02,axo03 -variants "R*-tree,RR*-tree"
//
// cbbench -list prints the datasets and the experiment names. Everything
// beyond the paper's figures — serving, parallel batches, sharded ingest,
// storage formats, durable updates — is measured by the repository
// benchmark instead (go run ./bench).
//
// With -save DIR every built tree is saved as a snapshot into DIR, and with
// -load DIR previously saved snapshots are reopened instead of rebuilding,
// so the index construction cost is paid once across experiment runs:
//
//	cbbench -exp fig11 -save /tmp/cbbcache   # build and save
//	cbbench -exp fig13 -load /tmp/cbbcache   # reuse the same trees
//
// With -cpuprofile FILE and/or -memprofile FILE the run writes pprof
// profiles (CPU over the whole run; heap after the final experiment), so
// hot-path regressions can be diagnosed without editing code:
//
//	cbbench -exp fig11 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"cbb/internal/datasets"
	"cbb/internal/experiments"
	"cbb/internal/rtree"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to run ("+strings.Join(experimentNames(), ",")+",all)")
		scale      = flag.Int("scale", 20000, "objects per dataset")
		queries    = flag.Int("queries", 200, "queries per selectivity profile")
		seed       = flag.Int64("seed", 42, "random seed")
		samples    = flag.Int("samples", 256, "Monte-Carlo samples per node for dead-space estimation")
		dsFlag     = flag.String("datasets", "", "comma-separated dataset subset (default: all seven)")
		varFlag    = flag.String("variants", "", "comma-separated variant subset (QR-tree,HR-tree,R*-tree,RR*-tree)")
		tau        = flag.Float64("tau", 0.025, "clip-point volume threshold τ")
		saveDir    = flag.String("save", "", "directory to save built-tree snapshots into (build cost paid once)")
		loadDir    = flag.String("load", "", "directory to load previously saved tree snapshots from")
		listOnly   = flag.Bool("list", false, "list datasets and experiments, then exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()

	// Profile teardown is explicit (not deferred) so the profiles are still
	// written when an experiment fails and we exit non-zero.
	stopProfiles := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(fmt.Errorf("creating CPU profile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("starting CPU profile: %w", err))
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memProfile != "" {
		stopCPU := stopProfiles
		stopProfiles = func() {
			stopCPU()
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(fmt.Errorf("creating heap profile: %w", err))
			}
			defer f.Close()
			runtime.GC() // materialise the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(fmt.Errorf("writing heap profile: %w", err))
			}
		}
	}

	if *listOnly {
		fmt.Println("datasets:")
		for _, s := range datasets.Specs {
			fmt.Printf("  %-6s %dd  default %d objects  (%s)\n", s.Name, s.Dims, s.DefaultSize, s.Description)
		}
		fmt.Println("experiments: " + strings.Join(experimentNames(), " ") + " all")
		stopProfiles()
		return
	}

	cfg := experiments.Config{
		Scale:          *scale,
		Queries:        *queries,
		Seed:           *seed,
		SamplesPerNode: *samples,
		Tau:            *tau,
		SaveDir:        *saveDir,
		LoadDir:        *loadDir,
	}
	if *dsFlag != "" {
		cfg.Datasets = splitList(*dsFlag)
	}
	if *varFlag != "" {
		for _, name := range splitList(*varFlag) {
			v, err := rtree.ParseVariant(name)
			if err != nil {
				fatal(err)
			}
			cfg.Variants = append(cfg.Variants, v)
		}
	}

	runner := &runner{cfg: cfg}
	which := strings.ToLower(strings.TrimSpace(*exp))
	names := []string{which}
	if which == "all" {
		names = experimentNames()
	}
	for _, name := range names {
		if err := runner.run(name); err != nil {
			stopProfiles()
			fatal(err)
		}
	}
	stopProfiles()
}

type runner struct {
	cfg   experiments.Config
	fig11 *experiments.Fig11Result // cached for table1
}

// experiment is one -exp name and the tables it prints.
type experiment struct {
	name string
	run  func(r *runner) ([]*experiments.Table, error)
}

// experimentList is every experiment cbbench runs, in the order -exp all
// runs them: the one place their names are spelled out.
var experimentList = []experiment{
	{"fig01", func(r *runner) ([]*experiments.Table, error) {
		res, err := experiments.RunFig01(r.cfg)
		if err != nil {
			return nil, err
		}
		return res.Tables(), nil
	}},
	{"fig08", func(r *runner) ([]*experiments.Table, error) { return table(experiments.RunFig08(r.cfg)) }},
	{"fig09", func(r *runner) ([]*experiments.Table, error) { return table(experiments.RunFig09(r.cfg)) }},
	{"fig10", func(r *runner) ([]*experiments.Table, error) { return table(experiments.RunFig10(r.cfg)) }},
	{"fig11", func(r *runner) ([]*experiments.Table, error) { return table(r.ensureFig11()) }},
	{"table1", func(r *runner) ([]*experiments.Table, error) {
		res, err := r.ensureFig11()
		if err != nil {
			return nil, err
		}
		return table(experiments.AggregateTable1(res), nil)
	}},
	{"fig12", func(r *runner) ([]*experiments.Table, error) { return table(experiments.RunFig12(r.cfg)) }},
	{"fig13", func(r *runner) ([]*experiments.Table, error) { return table(experiments.RunFig13(r.cfg)) }},
	{"fig14", func(r *runner) ([]*experiments.Table, error) { return table(experiments.RunFig14(r.cfg)) }},
	{"join", func(r *runner) ([]*experiments.Table, error) { return table(experiments.RunJoin(r.cfg)) }},
	{"fig15", func(r *runner) ([]*experiments.Table, error) { return table(experiments.RunFig15(r.cfg)) }},
}

func experimentNames() []string {
	names := make([]string, len(experimentList))
	for i, e := range experimentList {
		names[i] = e.name
	}
	return names
}

// table renders an experiment result that is one table.
func table[R interface{ Table() *experiments.Table }](res R, err error) ([]*experiments.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*experiments.Table{res.Table()}, nil
}

func (r *runner) run(name string) error {
	start := time.Now()
	i := slices.IndexFunc(experimentList, func(e experiment) bool { return e.name == name })
	if i < 0 {
		return fmt.Errorf("unknown experiment %q", name)
	}
	tables, err := experimentList[i].run(r)
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Println(t.String())
	}
	fmt.Printf("[%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}

func (r *runner) ensureFig11() (*experiments.Fig11Result, error) {
	if r.fig11 != nil {
		return r.fig11, nil
	}
	res, err := experiments.RunFig11(r.cfg)
	if err != nil {
		return nil, err
	}
	r.fig11 = res
	return res, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbbench:", err)
	os.Exit(1)
}
