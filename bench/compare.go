package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"text/tabwriter"
)

// minRunsPerSet is the fewest runs of a workload a result set needs before
// its median is compared.
const minRunsPerSet = 3

// cell is one workload × metric of one result set.
type cell struct {
	values []float64
	unit   string
}

func (c cell) median() float64 { return median(c.values) }

// spread is the run-to-run range of the set as a share of its median.
func (c cell) spread() float64 {
	med := c.median()
	if med == 0 {
		return 0
	}
	return (slices.Max(c.values) - slices.Min(c.values)) / math.Abs(med)
}

func cellsOf(rs *resultSet) map[string]map[string]*cell {
	out := map[string]map[string]*cell{}
	for _, r := range rs.Runs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]*cell{}
		}
		for name, v := range r.Metrics {
			c := out[r.Workload][name]
			if c == nil {
				c = &cell{unit: v.Unit}
				out[r.Workload][name] = c
			}
			c.values = append(c.values, v.Value)
		}
	}
	return out
}

// compareFiles prints one row per workload × end-to-end metric: both
// medians, the relative change in the metric's worse direction, and the
// bound. A row is a breach when B's median is worse than A's by more than
// the bound. A row within the bound is still unresolved, not unchanged, when
// either set's own run-to-run spread exceeds the bound, unless every run of
// B reads better than every run of A.
func compareFiles(pathA, pathB string, w io.Writer) (breached bool, err error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	ca, cb := cellsOf(a), cellsOf(b)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median\tB median\tworse by\tbound\tspread A\tspread B\tverdict\n")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			if !d.appliesTo(wl.name) {
				continue
			}
			x, y := ca[wl.name][d.name], cb[wl.name][d.name]
			if x == nil || y == nil || len(x.values) < minRunsPerSet || len(y.values) < minRunsPerSet {
				return false, fmt.Errorf("%s %s: each result set needs at least %d end-to-end runs", wl.name, d.name, minRunsPerSet)
			}
			ma, mb := x.median(), y.median()
			// worse > 0 means B is worse than A, as a share of A.
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / math.Abs(ma)
			} else if mb != 0 {
				worse = math.Inf(1)
			}
			allBetter := slices.Max(y.values) < slices.Min(x.values)
			if d.better == "higher" {
				worse = -worse
				allBetter = slices.Min(y.values) > slices.Max(x.values)
			}
			verdict := "ok"
			switch {
			case worse > d.bound:
				verdict, breached = "BREACH", true
			case math.Max(x.spread(), y.spread()) > d.bound && !allBetter:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.2f%%\t%.0f%%\t%.2f%%\t%.2f%%\t%s\n",
				wl.name, d.name, d.unit, ma, mb, 100*worse, 100*d.bound, 100*x.spread(), 100*y.spread(), verdict)
		}
	}
	return breached, tw.Flush()
}
