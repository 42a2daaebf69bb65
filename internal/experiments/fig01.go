package experiments

import (
	"cbb/internal/metrics"
	"cbb/internal/querygen"
	"cbb/internal/rtree"
)

// Fig01Row is one (dataset, variant) cell of Figures 1a and 1b: node overlap
// and dead space of an unclipped R-tree.
type Fig01Row struct {
	Dataset      string
	Variant      string
	AvgOverlap   float64 // Figure 1a
	AvgDeadSpace float64 // Figure 1b
}

// Fig01Optimality is one (dataset, profile) cell of Figure 1c: the share of
// accessed leaves that contained at least one result, for the RR*-tree.
type Fig01Optimality struct {
	Dataset string
	Profile string
	Ratio   float64
}

// Fig01Result reproduces Figure 1 (the motivation experiment).
type Fig01Result struct {
	Rows       []Fig01Row
	Optimality []Fig01Optimality
}

// RunFig01 measures overlap, dead space, and I/O optimality on the
// configured datasets and variants. The paper uses rea02 and axo03; pass
// cfg.Datasets to restrict.
func RunFig01(cfg Config) (*Fig01Result, error) {
	cfg = cfg.WithDefaults()
	out := &Fig01Result{}
	for _, name := range cfg.Datasets {
		ds, err := cfg.LoadDataset(name)
		if err != nil {
			return nil, err
		}
		queries, err := cfg.QuerySet(ds)
		if err != nil {
			return nil, err
		}
		for _, v := range cfg.Variants {
			tree, err := cfg.BuildTree(ds, v)
			if err != nil {
				return nil, err
			}
			stats := metrics.TreeNodeStats(tree, cfg.SamplesPerNode, cfg.Seed+2)
			out.Rows = append(out.Rows, Fig01Row{
				Dataset:      name,
				Variant:      v.String(),
				AvgOverlap:   stats.AvgOverlap,
				AvgDeadSpace: stats.AvgDeadSpace,
			})
			// Figure 1c is reported for the state-of-the-art RR*-tree only.
			if v == rtree.RRStar {
				for _, p := range querygen.AllProfiles() {
					opt := metrics.MeasureIOOptimality(tree, queries[p])
					out.Optimality = append(out.Optimality, Fig01Optimality{
						Dataset: name, Profile: p.String(), Ratio: opt.Ratio(),
					})
				}
			}
		}
	}
	return out, nil
}

// Tables renders the result in the layout of Figure 1.
func (r *Fig01Result) Tables() []*Table {
	t1 := NewTable("Figure 1a/1b: average overlap and dead space per node (unclipped)",
		"dataset", "variant", "overlap", "dead space")
	for _, row := range r.Rows {
		t1.AddRow(row.Dataset, row.Variant, Pct(row.AvgOverlap), Pct(row.AvgDeadSpace))
	}
	t2 := NewTable("Figure 1c: optimal/actual leaf accesses on the RR*-tree",
		"dataset", "profile", "useful leaf accesses")
	for _, o := range r.Optimality {
		t2.AddRow(o.Dataset, o.Profile, Pct(o.Ratio))
	}
	return []*Table{t1, t2}
}
