package main

import (
	"fmt"
	"math/rand"
	"slices"

	"cbb"
	"cbb/internal/datasets"
	"cbb/internal/querygen"
)

// inputs is everything a workload feeds the program under test, fully
// materialised before any timing starts. The program sees only these.
type inputs struct {
	dataset  string
	dims     int
	universe cbb.Rect
	items    []cbb.Item  // the indexed objects, ids 0..n-1
	ranges   []cbb.Rect  // range stream, cycling QR0/QR1/QR2 (≈1/10/100 results)
	knn      []cbb.Point // kNN stream: the centres of the range stream
	fresh    []cbb.Item  // objects for writes, scattered, ids n..
	// want is the oracle's result count of every range query over items
	// alone, from an unclipped twin index (see expectCounts).
	want []int32
}

const knnK = 10

// streamLen is the range-stream length for n objects: 20k at full scale (so
// the traced ladder replays "the first 20k ops"), shorter at toy scale.
func streamLen(n int) int {
	return min(20000, max(1000, n/5))
}

// datasetSeed generates the indexed objects of every workload (it is
// cmd/cbbserve's -seed default). The data set is the same on every run;
// -seed drives the traffic: range stream, kNN points, write stream, and the
// oracle's samples. With the data set seeded too, leaf reads per query on
// rea02 differ by 12 % between seeds 1 and 2 and shard-mixed splits a
// different number of shards per seed: variation of the input that no bound
// below 20 % would survive, and none of it noise a later change could be
// blamed for.
const datasetSeed = 42

// genInputs derives every input from (dataset, n, seed); see datasetSeed.
func genInputs(dataset string, n, freshN int, seed int64) (*inputs, error) {
	spec, err := datasets.Lookup(dataset)
	if err != nil {
		return nil, err
	}
	rects, err := datasets.Generate(dataset, n, datasetSeed)
	if err != nil {
		return nil, err
	}
	uni, err := datasets.Universe(dataset)
	if err != nil {
		return nil, err
	}
	in := &inputs{dataset: dataset, dims: spec.Dims, universe: uni, items: toItems(rects, 0)}

	gen, err := querygen.New(rects, uni, seed+1)
	if err != nil {
		return nil, err
	}
	profiles := querygen.AllProfiles()
	in.ranges = make([]cbb.Rect, streamLen(n))
	in.knn = make([]cbb.Point, len(in.ranges))
	for i := range in.ranges {
		in.ranges[i] = gen.Query(profiles[i%len(profiles)])
		in.knn[i] = in.ranges[i].Center()
	}

	if freshN > 0 {
		if in.fresh, err = freshItems(dataset, freshN, n, seed+2); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// freshItems generates n more objects of the dataset for writes, ids from
// firstID. The generators emit spatially clustered runs; a write batch is
// meant to be scattered over the whole index, so the order is shuffled.
func freshItems(dataset string, n, firstID int, seed int64) ([]cbb.Item, error) {
	rects, err := datasets.Generate(dataset, n, seed)
	if err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(seed+1)).Shuffle(len(rects), func(i, j int) { rects[i], rects[j] = rects[j], rects[i] })
	return toItems(rects, firstID), nil
}

// joinPartner generates the join's second input: parametric boxes of the
// same dimensionality and universe as in.
func joinPartner(in *inputs, n int) ([]cbb.Item, error) {
	rects, err := datasets.Generate(fmt.Sprintf("par%02d", in.dims), n, datasetSeed+1)
	if err != nil {
		return nil, err
	}
	return toItems(rects, 0), nil
}

func toItems(rects []cbb.Rect, firstID int) []cbb.Item {
	items := make([]cbb.Item, len(rects))
	for i, r := range rects {
		items[i] = cbb.Item{Object: cbb.ObjectID(firstID + i), Rect: r}
	}
	return items
}

func (in *inputs) options() cbb.Options {
	// Library defaults: RR*-tree, CSTA clipping.
	return cbb.Options{Dims: in.dims, Universe: in.universe}
}

func buildTree(opts cbb.Options, items []cbb.Item) (*cbb.Tree, error) {
	t, err := cbb.New(opts)
	if err != nil {
		return nil, err
	}
	if err := t.BulkLoad(items); err != nil {
		return nil, err
	}
	return t, nil
}

// oracleSample is the share of range and kNN answers re-derived by a scan of
// the item slice.
const oracleSample = 0.01

// expectCounts fills in.want from an unclipped twin of the index, and checks
// a seeded sample of the twin's own answers against a brute-force scan, so
// the clipped engine is compared with something that shares none of its
// pruning. The twin is dropped before returning. Repeated set-ups reuse the
// first one's counts: the inputs are the same.
func (in *inputs) expectCounts(rc *runCtx) error {
	if rc.want != nil {
		in.want = rc.want
		return nil
	}
	t, seed := rc.tally, rc.cfg.seed
	opts := in.options()
	opts.Clipping = cbb.ClipNone
	twin, err := buildTree(opts, in.items)
	if err != nil {
		return fmt.Errorf("oracle twin: %w", err)
	}
	in.want = make([]int32, len(in.ranges))
	rng := rand.New(rand.NewSource(seed + 4))
	for i, q := range in.ranges {
		in.want[i] = int32(twin.Count(q))
		if rng.Float64() < oracleSample {
			scan := 0
			for _, it := range in.items {
				if it.Rect.Intersects(q) {
					scan++
				}
			}
			t.check(scan == int(in.want[i]), "range oracle: query %d: unclipped twin found %d, scan of the items found %d", i, in.want[i], scan)
		}
	}
	rc.want = in.want
	return nil
}

// checkKNN compares a seeded sample of kNN answers with a scan of the item
// slice, by distance (ids may differ between equidistant objects).
func (in *inputs) checkKNN(rc *runCtx, knn func(k int, p cbb.Point) []cbb.Neighbor) {
	t := rc.tally
	rng := rand.New(rand.NewSource(rc.cfg.seed + 5))
	for i, p := range in.knn {
		if rng.Float64() >= oracleSample {
			continue
		}
		// The k smallest distances, ascending, by insertion into a short
		// sorted prefix: one pass over the items.
		best := make([]float64, 0, knnK+1)
		for _, it := range in.items {
			d := it.Rect.MinDistSq(p)
			if len(best) == knnK && d >= best[knnK-1] {
				continue
			}
			at, _ := slices.BinarySearch(best, d)
			best = slices.Insert(best, at, d)
			if len(best) > knnK {
				best = best[:knnK]
			}
		}
		got := knn(knnK, p)
		ok := len(got) == len(best)
		for j := 0; ok && j < len(got); j++ {
			ok = got[j].DistSq == best[j]
		}
		t.check(ok, "kNN oracle: point %d: answer differs from a scan of the items", i)
	}
}

// countVisitor returns a Search callback and the counter it feeds; one
// allocation per loop, none per query.
func countVisitor() (visit func(cbb.ObjectID, cbb.Rect) bool, n *int) {
	n = new(int)
	return func(cbb.ObjectID, cbb.Rect) bool { *n++; return true }, n
}

// passChecked runs one single-threaded pass of the range stream through
// search, checking every count against the oracle.
func (in *inputs) passChecked(t *tally, what string, search func(q cbb.Rect, visit func(cbb.ObjectID, cbb.Rect) bool)) {
	visit, n := countVisitor()
	var bad int64
	first := -1
	for i, q := range in.ranges {
		*n = 0
		search(q, visit)
		if *n != int(in.want[i]) {
			if bad == 0 {
				first = i
			}
			bad++
		}
	}
	t.add(int64(len(in.ranges)), bad, "%s: %d range queries disagreed with the oracle, the first is query %d", what, bad, first)
}
