// Package experiments reproduces every table and figure of the paper's
// evaluation (Section V) on the synthetic stand-in datasets, at a
// configurable scale. Each experiment returns a structured result that the
// cbbench tool and the root-level benchmarks render as text tables; the
// mapping from experiment to paper figure is listed in DESIGN.md §3 and the
// measured outcomes are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/datasets"
	"cbb/internal/geom"
	"cbb/internal/querygen"
	"cbb/internal/rtree"
	"cbb/internal/snapshot"
)

// Config controls the scale and determinism of all experiments.
type Config struct {
	// Scale is the number of objects per dataset (0 uses a harness default
	// of 20000; the paper uses 1–12 M).
	Scale int
	// Queries is the number of queries per selectivity profile (0 = 200).
	Queries int
	// Seed drives dataset generation, query generation and sampling.
	Seed int64
	// SamplesPerNode is the Monte-Carlo budget for dead-space estimation
	// (0 = metrics.DefaultSamplesPerNode).
	SamplesPerNode int
	// Datasets restricts which datasets are run (nil = all seven).
	Datasets []string
	// Variants restricts which R-tree variants are run (nil = all four).
	Variants []rtree.Variant
	// Tau is the clip-point volume threshold (0 = the paper's 2.5 %).
	Tau float64
	// LoadDir, when set, makes Config.BuildTree reopen a previously saved
	// tree snapshot from this directory instead of rebuilding (cbbench
	// -load). Snapshots that are missing or do not match the requested
	// dataset/variant/configuration are rebuilt.
	LoadDir string
	// SaveDir, when set, makes Config.BuildTree save every freshly built
	// tree as a snapshot into this directory (cbbench -save), so later runs
	// with LoadDir pay the build cost only once.
	SaveDir string
}

// WithDefaults fills unset fields with harness defaults and returns a copy.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 20000
	}
	if c.Queries <= 0 {
		c.Queries = 200
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.SamplesPerNode <= 0 {
		c.SamplesPerNode = 256
	}
	if len(c.Datasets) == 0 {
		c.Datasets = datasets.PaperNames()
	}
	if len(c.Variants) == 0 {
		c.Variants = rtree.AllVariants()
	}
	if c.Tau <= 0 {
		c.Tau = 0.025
	}
	return c
}

// params returns the clipping parameters for a dataset of the given
// dimensionality and the requested method, using the paper's k = 2^(d+1).
func (c Config) params(dims int, method core.Method) core.Params {
	return core.Params{K: 1 << uint(dims+1), Tau: c.Tau, Method: method}
}

// treeConfig derives the R-tree configuration the paper's benchmark uses:
// node capacity from the 4 KiB page size and minimum fill at 40 %.
func treeConfig(dims int, v rtree.Variant, universe geom.Rect) rtree.Config {
	max := rtree.MaxEntriesForPage(4096, dims)
	if max < 8 {
		max = 8
	}
	min := max * 2 / 5
	if min < 2 {
		min = 2
	}
	return rtree.Config{
		Dims:       dims,
		MaxEntries: max,
		MinEntries: min,
		Variant:    v,
		Universe:   universe,
	}
}

// Dataset bundles generated objects with their metadata, shared across the
// experiments of one run.
type Dataset struct {
	Spec     datasets.Spec
	Universe geom.Rect
	Items    []rtree.Item
}

// LoadDataset generates (or re-generates) a dataset at the configured scale.
func (c Config) LoadDataset(name string) (*Dataset, error) {
	spec, err := datasets.Lookup(name)
	if err != nil {
		return nil, err
	}
	uni, err := datasets.Universe(name)
	if err != nil {
		return nil, err
	}
	objs, err := datasets.Generate(name, c.Scale, c.Seed)
	if err != nil {
		return nil, err
	}
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{Object: rtree.ObjectID(i), Rect: o}
	}
	return &Dataset{Spec: spec, Universe: uni, Items: items}, nil
}

// BuildTree constructs an R-tree of the given variant over the dataset using
// the construction method the paper uses for it: Hilbert-curve bulk loading
// for the HR-tree, one-by-one insertion for the others. It returns the tree
// and the wall-clock build time.
func BuildTree(ds *Dataset, v rtree.Variant) (*rtree.Tree, time.Duration, error) {
	cfg := treeConfig(ds.Spec.Dims, v, ds.Universe)
	tree, err := rtree.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if v == rtree.Hilbert {
		if err := tree.BulkLoad(ds.Items); err != nil {
			return nil, 0, err
		}
	} else {
		for _, it := range ds.Items {
			if _, err := tree.Insert(it.Rect, it.Object); err != nil {
				return nil, 0, err
			}
		}
	}
	return tree, time.Since(start), nil
}

// BuildTree is the snapshot-caching variant of the package-level BuildTree,
// used by every experiment: with LoadDir set it reopens a previously saved
// snapshot instead of rebuilding (reporting the load time as the build
// time), and with SaveDir set it saves freshly built trees, so the index
// construction cost is paid once across experiment runs.
func (c Config) BuildTree(ds *Dataset, v rtree.Variant) (*rtree.Tree, time.Duration, error) {
	if c.LoadDir != "" {
		if tree, dur, ok := loadCachedTree(c.snapshotPath(c.LoadDir, ds, v), ds, v); ok {
			return tree, dur, nil
		}
	}
	tree, dur, err := BuildTree(ds, v)
	if err != nil {
		return nil, 0, err
	}
	if c.SaveDir != "" {
		if err := saveCachedTree(c.snapshotPath(c.SaveDir, ds, v), tree); err != nil {
			return nil, 0, fmt.Errorf("experiments: saving tree snapshot: %w", err)
		}
	}
	return tree, dur, nil
}

// snapshotPath names a cached tree snapshot so that any configuration
// difference that changes the built tree changes the file name.
func (c Config) snapshotPath(dir string, ds *Dataset, v rtree.Variant) string {
	return filepath.Join(dir, fmt.Sprintf("%s-n%d-seed%d-%s.cbb",
		ds.Spec.Name, len(ds.Items), c.Seed, variantSlug(v)))
}

func variantSlug(v rtree.Variant) string {
	switch v {
	case rtree.Quadratic:
		return "qr"
	case rtree.Hilbert:
		return "hr"
	case rtree.RStar:
		return "rstar"
	case rtree.RRStar:
		return "rrstar"
	default:
		return fmt.Sprintf("v%d", int(v))
	}
}

// loadCachedTree reopens a snapshot and fully materialises the tree,
// verifying that it matches the requested dataset and configuration; ok is
// false (and the caller rebuilds) when the file is missing, corrupt, or a
// configuration mismatch.
func loadCachedTree(path string, ds *Dataset, v rtree.Variant) (*rtree.Tree, time.Duration, bool) {
	start := time.Now()
	snap, fp, err := snapshot.OpenFile(path, false)
	if err != nil {
		return nil, 0, false
	}
	defer fp.Close()
	want := treeConfig(ds.Spec.Dims, v, ds.Universe)
	m := snap.Meta
	if m.Dims != want.Dims || m.Variant != v || m.MaxEntries != want.MaxEntries ||
		m.MinEntries != want.MinEntries || m.Objects != len(ds.Items) {
		return nil, 0, false
	}
	tree, err := snap.LoadTree(fp)
	if err != nil {
		return nil, 0, false
	}
	return tree, time.Since(start), true
}

// saveCachedTree writes a plain (unclipped) tree snapshot; experiments clip
// the reloaded tree themselves, per method.
func saveCachedTree(path string, tree *rtree.Tree) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	cfg := tree.Config()
	meta := snapshot.Meta{
		Dims:        cfg.Dims,
		Variant:     cfg.Variant,
		MaxEntries:  cfg.MaxEntries,
		MinEntries:  cfg.MinEntries,
		HilbertBits: cfg.HilbertBits,
		Universe:    cfg.Universe,
		ClipMethod:  snapshot.ClipNone,
	}
	return snapshot.WriteFile(path, tree, nil, meta)
}

// BuildTreePartial builds a tree over the first fraction of the dataset
// (used by the update experiment, which batch-loads 90 % and inserts the
// remaining 10 % afterwards).
func BuildTreePartial(ds *Dataset, v rtree.Variant, fraction float64) (*rtree.Tree, []rtree.Item, error) {
	if fraction <= 0 || fraction >= 1 {
		return nil, nil, fmt.Errorf("experiments: fraction must be in (0,1), got %g", fraction)
	}
	cut := int(float64(len(ds.Items)) * fraction)
	if cut < 1 {
		cut = 1
	}
	base := &Dataset{Spec: ds.Spec, Universe: ds.Universe, Items: ds.Items[:cut]}
	tree, _, err := BuildTree(base, v)
	if err != nil {
		return nil, nil, err
	}
	return tree, ds.Items[cut:], nil
}

// ClipTree wraps a tree with a clip index of the given method, timing the
// clip construction.
func (c Config) ClipTree(tree *rtree.Tree, method core.Method) (*clipindex.Index, time.Duration, error) {
	start := time.Now()
	idx, err := clipindex.New(tree, c.params(tree.Dims(), method))
	if err != nil {
		return nil, 0, err
	}
	return idx, time.Since(start), nil
}

// QuerySet generates the three benchmark query profiles for a dataset.
func (c Config) QuerySet(ds *Dataset) (map[querygen.Profile][]geom.Rect, error) {
	rects := make([]geom.Rect, len(ds.Items))
	for i := range ds.Items {
		rects[i] = ds.Items[i].Rect
	}
	gen, err := querygen.New(rects, ds.Universe, c.Seed+1)
	if err != nil {
		return nil, err
	}
	out := make(map[querygen.Profile][]geom.Rect, 3)
	for _, p := range querygen.AllProfiles() {
		out[p] = gen.Queries(p, c.Queries)
	}
	return out, nil
}
