package experiments

import (
	"math"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/metrics"
	"cbb/internal/querygen"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// This file contains ablation studies that go beyond the paper's figures but
// directly probe the design choices Section IV calls out:
//
//   - the τ threshold sweep the paper mentions but omits for space
//     ("we lack space to also vary τ");
//   - the additive score approximation of Figure 5, quantified by comparing
//     approximate and exact clipped volumes per node;
//   - the contribution of ordering clip points by score (the paper sorts
//     them so the most effective test runs first).

// TauRow is one point of the τ sweep: storage cost and query I/O of a
// stairline-clipped RR*-tree at a given threshold.
type TauRow struct {
	Dataset        string
	Tau            float64
	AvgClipPoints  float64
	ClipTableBytes int
	ClippedShare   float64 // share of dead space removed
	RelativeLeafIO float64 // clipped / unclipped leaf accesses on QR1
}

// TauSweepResult is the τ ablation.
type TauSweepResult struct {
	Rows []TauRow
}

// RunTauSweep varies the clip-point threshold τ and reports the trade-off
// between clip-table size and query I/O on the configured datasets
// (RR*-tree, stairline clipping, QR1 queries).
func RunTauSweep(cfg Config, taus []float64) (*TauSweepResult, error) {
	cfg = cfg.WithDefaults()
	if len(taus) == 0 {
		taus = []float64{0, 0.01, 0.025, 0.05, 0.1, 0.2}
	}
	out := &TauSweepResult{}
	for _, name := range cfg.Datasets {
		ds, err := cfg.LoadDataset(name)
		if err != nil {
			return nil, err
		}
		queries, err := cfg.QuerySet(ds)
		if err != nil {
			return nil, err
		}
		qs := queries[querygen.QR1]
		tree, _, err := cfg.BuildTree(ds, rtree.RRStar)
		if err != nil {
			return nil, err
		}
		plain := tree.CurrentVersion()
		unclipped := leafReads(qs, func(q geom.Rect) storage.Snapshot { return plain.SearchCounted(q, nil, discard) })
		for _, tau := range taus {
			params := core.Params{K: 1 << uint(ds.Spec.Dims+1), Tau: tau, Method: core.MethodStairline}
			idx, err := clipindex.New(tree, params)
			if err != nil {
				return nil, err
			}
			cs := metrics.ClippedDeadSpace(idx, cfg.SamplesPerNode, cfg.Seed+6)
			snap := idx.Snap()
			clipped := leafReads(qs, func(q geom.Rect) storage.Snapshot { return snap.SearchCounted(q, nil, discard) })
			out.Rows = append(out.Rows, TauRow{
				Dataset:        name,
				Tau:            tau,
				AvgClipPoints:  idx.Table().AvgClipPointsPerNode(),
				ClipTableBytes: idx.AuxBytes(),
				ClippedShare:   cs.ClippedShareOfDead,
				RelativeLeafIO: relative(clipped, unclipped),
			})
		}
	}
	return out, nil
}

// Table renders the τ sweep.
func (r *TauSweepResult) Table() *Table {
	t := NewTable("Ablation: clip-point threshold τ (CSTA, RR*-tree, QR1 queries)",
		"dataset", "tau", "avg clips/node", "clip bytes", "dead space clipped", "relative leaf IO")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Tau, row.AvgClipPoints, row.ClipTableBytes,
			Pct(row.ClippedShare), Pct(row.RelativeLeafIO))
	}
	return t
}

// ScoreApproxRow quantifies the Figure 5 approximation for one dataset: how
// far the additive score is from the exact union of clipped regions, and
// whether the approximation changes which clip points get selected.
type ScoreApproxRow struct {
	Dataset string
	Variant string
	// MeanRelativeError is mean(|approx − exact| / exact) over clipped nodes.
	MeanRelativeError float64
	// Nodes is the number of clipped nodes measured.
	Nodes int
}

// ScoreApproxResult is the score-approximation ablation.
type ScoreApproxResult struct {
	Rows []ScoreApproxRow
}

// RunScoreApprox measures the error of the additive score approximation on
// the configured datasets and variants (stairline clipping).
func RunScoreApprox(cfg Config) (*ScoreApproxResult, error) {
	cfg = cfg.WithDefaults()
	out := &ScoreApproxResult{}
	for _, name := range cfg.Datasets {
		ds, err := cfg.LoadDataset(name)
		if err != nil {
			return nil, err
		}
		for _, v := range cfg.Variants {
			tree, _, err := cfg.BuildTree(ds, v)
			if err != nil {
				return nil, err
			}
			row := ScoreApproxRow{Dataset: name, Variant: v.String()}
			row.MeanRelativeError, row.Nodes = ScoreApproxError(tree, cfg.params(tree.Dims(), core.MethodStairline))
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// ScoreApproxError returns mean(|approx − exact| / exact) of the additive
// score approximation over the nodes of the tree that get clip points under
// params, and how many those are. A clipped index keeps no scores, so
// Algorithm 1 is re-run per node.
func ScoreApproxError(tree *rtree.Tree, params core.Params) (meanRelErr float64, nodes int) {
	var clipper core.Clipper
	tree.Walk(func(info rtree.NodeInfo) {
		children := make([]geom.Rect, info.Len())
		for i := range children {
			children[i] = info.Rect(i)
		}
		clips := clipper.Clip(info.MBB, children, params)
		exact := core.ClippedVolume(info.MBB, clips)
		if exact <= 0 {
			return
		}
		meanRelErr += math.Abs(core.ApproxClippedVolume(clips)-exact) / exact
		nodes++
	})
	if nodes > 0 {
		meanRelErr /= float64(nodes)
	}
	return meanRelErr, nodes
}

// Table renders the score-approximation ablation.
func (r *ScoreApproxResult) Table() *Table {
	t := NewTable("Ablation: additive score approximation error (Figure 5 assumptions)",
		"dataset", "variant", "clipped nodes", "mean relative error")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Variant, row.Nodes, Pct(row.MeanRelativeError))
	}
	return t
}

// OrderingRow compares score-ordered clip points against a deliberately
// reversed ordering: the result sets are identical, but the number of
// dominance tests executed per pruned node differs.
type OrderingRow struct {
	Dataset string
	// OrderedChecks and ReversedChecks count clip-point dominance tests per
	// query batch under the two orderings.
	OrderedChecks  int64
	ReversedChecks int64
}

// OrderingResult is the clip-point-ordering ablation.
type OrderingResult struct {
	Rows []OrderingRow
}

// RunOrderingAblation measures how many clip-point comparisons Algorithm 2
// performs when clip points are tested best-first (as the paper prescribes)
// versus worst-first, on QR1 queries over a stairline-clipped RR*-tree.
func RunOrderingAblation(cfg Config) (*OrderingResult, error) {
	cfg = cfg.WithDefaults()
	out := &OrderingResult{}
	for _, name := range cfg.Datasets {
		ds, err := cfg.LoadDataset(name)
		if err != nil {
			return nil, err
		}
		queries, err := cfg.QuerySet(ds)
		if err != nil {
			return nil, err
		}
		qs := queries[querygen.QR1]
		tree, _, err := cfg.BuildTree(ds, rtree.RRStar)
		if err != nil {
			return nil, err
		}
		idx, _, err := cfg.ClipTree(tree, core.MethodStairline)
		if err != nil {
			return nil, err
		}
		ordered := countClipChecks(tree, idx.Table(), qs, false)
		reversed := countClipChecks(tree, idx.Table(), qs, true)
		out.Rows = append(out.Rows, OrderingRow{Dataset: name, OrderedChecks: ordered, ReversedChecks: reversed})
	}
	return out, nil
}

// countClipChecks replays the clipped descent over the queries and returns
// the number of clip-point dominance tests it runs until a verdict per
// candidate child — the children of visited nodes that have clip points and
// whose MBB the query intersects — with every clip list optionally reversed.
// The verdicts, and so the nodes visited, do not depend on the order.
func countClipChecks(tree *rtree.Tree, table clipindex.Table, queries []geom.Rect, reversed bool) int64 {
	v := tree.CurrentVersion()
	var checks int64
	var descend func(id rtree.NodeID, q geom.Rect)
	descend = func(id rtree.NodeID, q geom.Rect) {
		info, err := v.Node(id)
		if err != nil || info.Leaf {
			return
		}
	children:
		for i := 0; i < info.Len(); i++ {
			if !info.Rect(i).Intersects(q) {
				continue
			}
			clips := table[info.Child(i)]
			// Examine clip points one at a time until one prunes (or all
			// pass), mirroring Algorithm 2's early exit.
			for k := range clips {
				if reversed {
					k = len(clips) - 1 - k
				}
				checks++
				if core.QueryDead(clips[k:k+1], q) {
					continue children
				}
			}
			descend(info.Child(i), q)
		}
	}
	for _, q := range queries {
		descend(v.RootID(), q)
	}
	return checks
}

// Table renders the ordering ablation.
func (r *OrderingResult) Table() *Table {
	t := NewTable("Ablation: clip-point ordering (dominance tests per QR1 batch)",
		"dataset", "score-ordered", "reversed", "saved")
	for _, row := range r.Rows {
		saved := 0.0
		if row.ReversedChecks > 0 {
			saved = 1 - float64(row.OrderedChecks)/float64(row.ReversedChecks)
		}
		t.AddRow(row.Dataset, row.OrderedChecks, row.ReversedChecks, Pct(saved))
	}
	return t
}
