package experiments

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"reflect"
	"testing"
	"time"
)

// The paper's figures are what this repository reproduces, so a refactor of
// the tree, the clip layer or the read paths may change how fast they are
// computed, never what they say. TestPaperFiguresIdentity runs every
// experiment — Figures 1 and 8–15, Table I, the spatial join and the three
// ablations — at one small fixed scale and seed over a 2-D and a 3-D dataset
// (the join and Figure 15 bring their own), and holds each result to a digest
// recorded before the node directory held the clip records: every column
// except wall-clock (see digestResult), so one node access more or less in
// any query, join, insert or build changes a digest.

// paperFiguresGolden maps each experiment to the SHA-256 of its result,
// shortened to 16 hex digits.
var paperFiguresGolden = map[string]string{
	"TestPaperFiguresIdentity/fig01":    "59dc1dd758a0946a",
	"TestPaperFiguresIdentity/fig08":    "0ed40489df33de4d",
	"TestPaperFiguresIdentity/fig09":    "54e6c357a3ee0358",
	"TestPaperFiguresIdentity/fig10":    "7629e296c9b03a52",
	"TestPaperFiguresIdentity/fig11":    "fdf2319aa85c884c",
	"TestPaperFiguresIdentity/table1":   "5c5cca88d4ea2441",
	"TestPaperFiguresIdentity/fig12":    "9c929b5929e431b8",
	"TestPaperFiguresIdentity/fig13":    "3e79c7588322f089",
	"TestPaperFiguresIdentity/fig14":    "f52fb0c1f9fdb9e7",
	"TestPaperFiguresIdentity/join":     "40edabe8cd475aa4",
	"TestPaperFiguresIdentity/fig15":    "af767af4cfa9dbb0",
	"TestPaperFiguresIdentity/tau":      "42996d32814bdbd1",
	"TestPaperFiguresIdentity/score":    "2dbce06950d08831",
	"TestPaperFiguresIdentity/ordering": "87531c4bf0ed50a8",
}

// wallClock names the result fields derived from elapsed time: the digest
// skips them, like every time.Duration field.
var wallClock = map[string]bool{
	"RelativeToRR":  true, // Figure 14: (build+clip) time / RR*-tree build time
	"ClipShareOfIt": true, // Figure 14: clip time / (build+clip) time
}

func TestPaperFiguresIdentity(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-figure identity skipped in -short mode and under -race (no concurrency; CI runs it without)")
	}
	cfg := Config{Scale: 2000, Queries: 50, Seed: 42, Datasets: []string{"rea02", "axo03"}}
	var fig11 *Fig11Result
	for _, exp := range []struct {
		name string
		run  func() (any, error)
	}{
		{"fig01", func() (any, error) { return RunFig01(cfg) }},
		{"fig08", func() (any, error) { return RunFig08(cfg) }},
		{"fig09", func() (any, error) { return RunFig09(cfg) }},
		{"fig10", func() (any, error) { return RunFig10(cfg) }},
		{"fig11", func() (res any, err error) {
			fig11, err = RunFig11(cfg)
			return fig11, err
		}},
		{"table1", func() (any, error) {
			if fig11 == nil {
				return nil, fmt.Errorf("fig11 did not run")
			}
			return AggregateTable1(fig11), nil
		}},
		{"fig12", func() (any, error) { return RunFig12(cfg) }},
		{"fig13", func() (any, error) { return RunFig13(cfg) }},
		{"fig14", func() (any, error) { return RunFig14(cfg) }},
		{"join", func() (any, error) { return RunJoin(cfg) }},
		{"fig15", func() (any, error) { return RunFig15(cfg) }},
		{"tau", func() (any, error) { return RunTauSweep(cfg, nil) }},
		{"score", func() (any, error) { return RunScoreApprox(cfg) }},
		{"ordering", func() (any, error) { return RunOrderingAblation(cfg) }},
	} {
		t.Run(exp.name, func(t *testing.T) {
			res, err := exp.run()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			digestResult(h, reflect.ValueOf(res))
			got := fmt.Sprintf("%x", h.Sum(nil)[:8])
			if want := paperFiguresGolden[t.Name()]; got != want {
				t.Errorf("digest %s, recorded %q", got, want)
			}
		})
	}
}

// digestResult writes v to h field by field, in declaration order, with every
// number at full precision (%v prints the shortest float that round-trips)
// and every map in key order — skipping time.Duration fields and the fields
// wallClock names.
func digestResult(h hash.Hash, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			digestResult(h, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Type == reflect.TypeFor[time.Duration]() || wallClock[f.Name] || !f.IsExported() {
				continue
			}
			fmt.Fprintf(h, "%s=", f.Name)
			digestResult(h, v.Field(i))
			h.Write([]byte{';'})
		}
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(h, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			digestResult(h, v.Index(i))
			h.Write([]byte{','})
		}
		h.Write([]byte{']'})
	default: // scalars and maps of scalars (fmt sorts map keys)
		fmt.Fprintf(h, "%v", v.Interface())
	}
}
