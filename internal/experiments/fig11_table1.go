package experiments

import (
	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/querygen"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// Fig11Row is one bar of Figure 11: relative leaf accesses of a clipped
// R-tree versus its unclipped counterpart, for one (dataset, variant,
// profile, method) combination.
type Fig11Row struct {
	Dataset         string
	Variant         string
	Profile         string
	Method          string
	UnclippedLeafIO int64
	ClippedLeafIO   int64
	// Relative is clipped / unclipped (the y-axis of Figure 11; 1.0 = no
	// gain, lower is better).
	Relative float64
}

// knnProfile names the rows that are not the paper's, and that Table I
// leaves out: the figure's nearest-neighbour twin, k = 10 at the centre of
// every range query of the three profiles.
const knnProfile = "kNN10"

// Fig11Result reproduces Figure 11 (range-query I/O) for both clipping
// methods; the figure shows CSTA, and Table I aggregates both.
type Fig11Result struct {
	Rows []Fig11Row
}

// RunFig11 builds every (dataset, variant) pair once, generates the three
// query profiles, and measures leaf accesses of the unclipped tree and both
// clipped variants on identical query batches, range and nearest-neighbour.
func RunFig11(cfg Config) (*Fig11Result, error) {
	cfg = cfg.WithDefaults()
	out := &Fig11Result{}
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
			tree, _, err := cfg.BuildTree(ds, v)
			if err != nil {
				return nil, err
			}
			idxSky, _, err := cfg.ClipTree(tree, core.MethodSkyline)
			if err != nil {
				return nil, err
			}
			idxSta, _, err := cfg.ClipTree(tree, core.MethodStairline)
			if err != nil {
				return nil, err
			}
			// The unclipped tree, then the clipped ones, skyline first.
			plain, sky, sta := tree.CurrentVersion(), idxSky.Snap(), idxSta.Snap()
			search := []func(geom.Rect) storage.Snapshot{
				func(q geom.Rect) storage.Snapshot { return plain.SearchCounted(q, nil, discard) },
				func(q geom.Rect) storage.Snapshot { return sky.SearchCounted(q, nil, discard) },
				func(q geom.Rect) storage.Snapshot { return sta.SearchCounted(q, nil, discard) },
			}
			nearest := []func(geom.Rect) storage.Snapshot{
				func(q geom.Rect) storage.Snapshot {
					_, io := rtree.NearestNeighbors(10, q.Center(), rtree.KNNSource{Version: plain})
					return io
				},
				func(q geom.Rect) storage.Snapshot {
					_, io := clipindex.NearestNeighbors(10, q.Center(), sky)
					return io
				},
				func(q geom.Rect) storage.Snapshot {
					_, io := clipindex.NearestNeighbors(10, q.Center(), sta)
					return io
				},
			}
			rows := func(profile string, qs []geom.Rect, run []func(geom.Rect) storage.Snapshot) {
				var leafIO [3]int64
				for i, f := range run {
					leafIO[i] = leafReads(qs, f)
				}
				for i, m := range []core.Method{core.MethodSkyline, core.MethodStairline} {
					out.Rows = append(out.Rows, Fig11Row{Dataset: name, Variant: v.String(), Profile: profile,
						Method: m.String(), UnclippedLeafIO: leafIO[0],
						ClippedLeafIO: leafIO[i+1], Relative: relative(leafIO[i+1], leafIO[0])})
				}
			}
			var all []geom.Rect
			for _, p := range querygen.AllProfiles() {
				all = append(all, queries[p]...)
				rows(p.String(), queries[p], search)
			}
			rows(knnProfile, all, nearest)
		}
	}
	return out, nil
}

// leafReads runs a query batch and sums the leaf accesses its queries return.
func leafReads(qs []geom.Rect, query func(geom.Rect) storage.Snapshot) int64 {
	var n int64
	for _, q := range qs {
		n += query(q).LeafReads
	}
	return n
}

func relative(clipped, unclipped int64) float64 {
	if unclipped == 0 {
		return 1
	}
	return float64(clipped) / float64(unclipped)
}

// Table renders Figure 11 (CSTA rows, as in the paper's figure).
func (r *Fig11Result) Table() *Table {
	t := NewTable("Figure 11: leaf accesses of clipped R-trees relative to unclipped (CSTA)",
		"dataset", "variant", "profile", "unclipped", "clipped", "relative")
	for _, row := range r.Rows {
		if row.Method != core.MethodStairline.String() {
			continue
		}
		t.AddRow(row.Dataset, row.Variant, row.Profile, row.UnclippedLeafIO, row.ClippedLeafIO, Pct(row.Relative))
	}
	return t
}

// Table1Cell is one cell of Table I: the average I/O reduction (percent) of
// skyline and stairline clipping for one variant and query profile, averaged
// over datasets.
type Table1Cell struct {
	Variant      string
	Profile      string // "QR0", "QR1", "QR2" or "Total"
	SkyReduction float64
	StaReduction float64
}

// Table1Result reproduces Table I by aggregating Figure 11's measurements.
type Table1Result struct {
	Cells []Table1Cell
}

// AggregateTable1 averages the per-dataset reductions of a Fig11Result into
// the layout of Table I (variant × profile, plus Total rows/columns).
func AggregateTable1(fig11 *Fig11Result) *Table1Result {
	type key struct{ variant, profile, method string }
	sums := make(map[key]float64)
	counts := make(map[key]int)
	add := func(variant, profile, method string, reduction float64) {
		k := key{variant, profile, method}
		sums[k] += reduction
		counts[k]++
	}
	for _, row := range fig11.Rows {
		if row.Profile == knnProfile {
			continue
		}
		reduction := 1 - row.Relative
		add(row.Variant, row.Profile, row.Method, reduction)
		add(row.Variant, "Total", row.Method, reduction)
		add("Total", row.Profile, row.Method, reduction)
		add("Total", "Total", row.Method, reduction)
	}
	avg := func(variant, profile, method string) float64 {
		k := key{variant, profile, method}
		if counts[k] == 0 {
			return 0
		}
		return sums[k] / float64(counts[k])
	}
	out := &Table1Result{}
	variants := []string{"QR-tree", "HR-tree", "R*-tree", "RR*-tree", "Total"}
	profiles := []string{"QR0", "QR1", "QR2", "Total"}
	for _, v := range variants {
		for _, p := range profiles {
			if counts[key{v, p, "CSTA"}] == 0 && counts[key{v, p, "CSKY"}] == 0 {
				continue
			}
			out.Cells = append(out.Cells, Table1Cell{
				Variant: v, Profile: p,
				SkyReduction: avg(v, p, "CSKY"),
				StaReduction: avg(v, p, "CSTA"),
			})
		}
	}
	return out
}

// Table renders Table I in the paper's "skyline/stairline" cell format.
func (r *Table1Result) Table() *Table {
	t := NewTable("Table I: average % I/O reduction (skyline/stairline clipping)",
		"variant", "QR0", "QR1", "QR2", "Total")
	variants := []string{"QR-tree", "HR-tree", "R*-tree", "RR*-tree", "Total"}
	cells := make(map[string]map[string]Table1Cell)
	for _, c := range r.Cells {
		if cells[c.Variant] == nil {
			cells[c.Variant] = make(map[string]Table1Cell)
		}
		cells[c.Variant][c.Profile] = c
	}
	for _, v := range variants {
		byProfile, ok := cells[v]
		if !ok {
			continue
		}
		row := []interface{}{v}
		for _, p := range []string{"QR0", "QR1", "QR2", "Total"} {
			c := byProfile[p]
			row = append(row, formatSkySta(c.SkyReduction, c.StaReduction))
		}
		t.AddRow(row...)
	}
	return t
}

func formatSkySta(sky, sta float64) string {
	return Pct(sky) + "/" + Pct(sta)
}
