package experiments

import (
	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/metrics"
)

// Fig10Row is one bar of Figure 10: for a (dataset, variant, method, k)
// combination, the node dead space and the share of it clipped away.
type Fig10Row struct {
	Dataset            string
	Variant            string
	Method             string
	K                  int
	AvgDeadSpace       float64 // total bar height
	AvgClipped         float64 // filled (clear) part
	AvgRemaining       float64 // solid lower part
	ClippedShareOfDead float64
	AvgClipPoints      float64
}

// Fig10Result reproduces Figure 10 (dead space clipped away per k for both
// clipping methods).
type Fig10Result struct {
	Rows []Fig10Row
}

// KValues returns the k sweep the paper uses for a given dimensionality:
// 1..2^(d+1) in steps matching the figure's x-axis labels.
func KValues(dims int) []int {
	if dims == 2 {
		return []int{1, 2, 4, 6, 8}
	}
	return []int{1, 4, 8, 12, 16}
}

// RunFig10 sweeps k for both clipping methods over the configured datasets
// and variants, measuring the clipped and remaining dead space per node.
func RunFig10(cfg Config) (*Fig10Result, error) {
	cfg = cfg.WithDefaults()
	out := &Fig10Result{}
	for _, name := range cfg.Datasets {
		ds, err := cfg.LoadDataset(name)
		if err != nil {
			return nil, err
		}
		for _, v := range cfg.Variants {
			tree, err := cfg.BuildTree(ds, v)
			if err != nil {
				return nil, err
			}
			for _, method := range []core.Method{core.MethodSkyline, core.MethodStairline} {
				for _, k := range KValues(ds.Spec.Dims) {
					params := core.Params{K: k, Tau: cfg.Tau, Method: method}
					idx, err := clipindex.New(tree, params)
					if err != nil {
						return nil, err
					}
					cs := metrics.ClippedDeadSpace(idx, cfg.SamplesPerNode, cfg.Seed+4)
					out.Rows = append(out.Rows, Fig10Row{
						Dataset:            name,
						Variant:            v.String(),
						Method:             method.String(),
						K:                  k,
						AvgDeadSpace:       cs.AvgDeadSpace,
						AvgClipped:         cs.AvgClipped,
						AvgRemaining:       cs.AvgRemaining,
						ClippedShareOfDead: cs.ClippedShareOfDead,
						AvgClipPoints:      cs.AvgClipPoints,
					})
				}
			}
		}
	}
	return out, nil
}

// Table renders Figure 10 with one row per bar.
func (r *Fig10Result) Table() *Table {
	t := NewTable("Figure 10: dead space clipped away per node (CSKY / CSTA, k sweep)",
		"dataset", "variant", "method", "k", "dead space", "clipped", "remaining", "clipped share", "avg clips")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Variant, row.Method, row.K,
			Pct(row.AvgDeadSpace), Pct(row.AvgClipped), Pct(row.AvgRemaining),
			Pct(row.ClippedShareOfDead), row.AvgClipPoints)
	}
	return t
}
