package experiments

import (
	"strings"
	"testing"

	"cbb/internal/core"
	"cbb/internal/datasets"
	"cbb/internal/rtree"
)

// tinyConfig keeps experiment tests fast: small datasets, few queries,
// modest sampling.
func tinyConfig(ds ...string) Config {
	return Config{
		Scale:          2500,
		Queries:        30,
		Seed:           7,
		SamplesPerNode: 96,
		Datasets:       ds,
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Scale <= 0 || c.Queries <= 0 || c.Seed == 0 || c.SamplesPerNode <= 0 || c.Tau <= 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if len(c.Datasets) != 7 || len(c.Variants) != 4 {
		t.Fatalf("defaults should cover all datasets and variants: %+v", c)
	}
	p := c.params(2, core.MethodStairline)
	if p.K != 8 || p.Method != core.MethodStairline {
		t.Errorf("params wrong: %+v", p)
	}
	if c.params(3, core.MethodSkyline).K != 16 {
		t.Error("3d K should be 16")
	}
}

func TestLoadDatasetAndBuildTree(t *testing.T) {
	cfg := tinyConfig("par02").WithDefaults()
	ds, err := cfg.LoadDataset("par02")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Items) != cfg.Scale {
		t.Fatalf("loaded %d items, want %d", len(ds.Items), cfg.Scale)
	}
	for _, v := range rtree.AllVariants() {
		tree, buildTime, err := BuildTree(ds, v)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Len() != cfg.Scale {
			t.Fatalf("%v: tree has %d objects", v, tree.Len())
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if buildTime <= 0 {
			t.Errorf("%v: build time not measured", v)
		}
	}
	if _, err := cfg.LoadDataset("bogus"); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestBuildTreePartial(t *testing.T) {
	cfg := tinyConfig("rea02").WithDefaults()
	ds, err := cfg.LoadDataset("rea02")
	if err != nil {
		t.Fatal(err)
	}
	tree, rest, err := BuildTreePartial(ds, rtree.Quadratic, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len()+len(rest) != len(ds.Items) {
		t.Fatalf("partial build lost items: %d + %d != %d", tree.Len(), len(rest), len(ds.Items))
	}
	if len(rest) == 0 {
		t.Error("expected a residue of items to insert")
	}
	if _, _, err := BuildTreePartial(ds, rtree.Quadratic, 1.5); err == nil {
		t.Error("fraction outside (0,1) must be rejected")
	}
}

func TestBuildTreeSnapshotCache(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Scale: 1200, Seed: 42, SaveDir: dir}.WithDefaults()
	ds, err := cfg.LoadDataset("rea02")
	if err != nil {
		t.Fatal(err)
	}
	built, err := cfg.BuildTree(ds, rtree.RRStar)
	if err != nil {
		t.Fatal(err)
	}

	cfg.SaveDir, cfg.LoadDir = "", dir
	reloaded, err := cfg.BuildTree(ds, rtree.RRStar)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != built.Len() || reloaded.Height() != built.Height() {
		t.Fatalf("cache round trip changed the tree: %d/%d vs %d/%d",
			reloaded.Len(), reloaded.Height(), built.Len(), built.Height())
	}
	if err := reloaded.Validate(); err != nil {
		t.Fatal(err)
	}
	// The reloaded tree is fully in memory and mutable.
	if _, err := reloaded.Insert(ds.Items[0].Rect, 999999); err != nil {
		t.Fatalf("cached tree must stay mutable: %v", err)
	}

	// A different variant misses the cache and rebuilds.
	other, err := cfg.BuildTree(ds, rtree.Quadratic)
	if err != nil {
		t.Fatal(err)
	}
	if other.Config().Variant != rtree.Quadratic {
		t.Fatal("variant mismatch must bypass the cache")
	}
}

func TestQuerySet(t *testing.T) {
	cfg := tinyConfig("axo03").WithDefaults()
	ds, err := cfg.LoadDataset("axo03")
	if err != nil {
		t.Fatal(err)
	}
	qs, err := cfg.QuerySet(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Fatalf("expected 3 profiles, got %d", len(qs))
	}
	for p, queries := range qs {
		if len(queries) != cfg.Queries {
			t.Errorf("%v: %d queries, want %d", p, len(queries), cfg.Queries)
		}
	}
}

func TestRunFig01(t *testing.T) {
	res, err := RunFig01(Config{Scale: 2000, Queries: 20, Seed: 7, SamplesPerNode: 64,
		Datasets: []string{"rea02"}, Variants: []rtree.Variant{rtree.Quadratic, rtree.RRStar}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.AvgDeadSpace <= 0 || row.AvgDeadSpace > 1 {
			t.Errorf("dead space out of range: %+v", row)
		}
		if row.AvgOverlap < 0 || row.AvgOverlap > 1 {
			t.Errorf("overlap out of range: %+v", row)
		}
	}
	if len(res.Optimality) != 3 {
		t.Fatalf("expected 3 optimality cells (RR*-tree × 3 profiles), got %d", len(res.Optimality))
	}
	for _, o := range res.Optimality {
		if o.Ratio <= 0 || o.Ratio > 1 {
			t.Errorf("optimality out of range: %+v", o)
		}
	}
	tables := res.Tables()
	if len(tables) != 2 || !strings.Contains(tables[0].String(), "rea02") {
		t.Error("tables should render the dataset")
	}
}

func TestRunFig08(t *testing.T) {
	res, err := RunFig08(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leaves) != 2 {
		t.Fatalf("expected 2 leaves, got %d", len(res.Leaves))
	}
	bottom := res.Leaves[0]
	// Qualitative ordering of Figure 8 on the bottom node: MBC worst, CSTA
	// best among the measured set, CH no worse than MBB.
	if bottom["MBC"] < bottom["MBB"] {
		t.Errorf("MBC (%.2f) should have at least as much dead space as MBB (%.2f)", bottom["MBC"], bottom["MBB"])
	}
	if bottom["CH"] > bottom["MBB"]+0.03 {
		t.Errorf("CH (%.2f) should not exceed MBB (%.2f)", bottom["CH"], bottom["MBB"])
	}
	if bottom["CBBSTA"] > bottom["CBBSKY"]+0.03 {
		t.Errorf("CBBSTA (%.2f) should not exceed CBBSKY (%.2f)", bottom["CBBSTA"], bottom["CBBSKY"])
	}
	if !strings.Contains(res.Table().String(), "CBBSTA") {
		t.Error("table should include CBBSTA column")
	}
}

func TestRunFig09(t *testing.T) {
	res, err := RunFig09(Config{Scale: 2000, Seed: 7, SamplesPerNode: 64, Datasets: []string{"rea02", "axo03"}})
	if err != nil {
		t.Fatal(err)
	}
	// axo03 is 3d and must be skipped; rea02 contributes 8 methods.
	if len(res.Rows) != 8 {
		t.Fatalf("expected 8 rows for the single 2d dataset, got %d", len(res.Rows))
	}
	byMethod := make(map[string]Fig09Row)
	for _, r := range res.Rows {
		byMethod[r.Method] = r
	}
	if byMethod["CH"].Points <= byMethod["4-C"].Points {
		t.Error("the convex hull should need more points than a 4-corner polygon")
	}
	if byMethod["CBBSTA"].DeadSpace > byMethod["MBB"].DeadSpace {
		t.Error("stairline CBBs should have less dead space than plain MBBs")
	}
	if !strings.Contains(res.Table().String(), "rea02") {
		t.Error("table should mention the dataset")
	}
}

func TestRunFig10(t *testing.T) {
	res, err := RunFig10(Config{Scale: 2000, Seed: 7, SamplesPerNode: 64,
		Datasets: []string{"par02"}, Variants: []rtree.Variant{rtree.RStar}})
	if err != nil {
		t.Fatal(err)
	}
	// 1 dataset × 1 variant × 2 methods × 5 k values.
	if len(res.Rows) != 10 {
		t.Fatalf("expected 10 rows, got %d", len(res.Rows))
	}
	// Clipped volume must be monotone (within noise) in k for a fixed
	// method, and CSTA at max k must clip at least as much as CSKY.
	var skyMax, staMax float64
	prev := make(map[string]float64)
	for _, row := range res.Rows {
		if row.AvgClipped < prev[row.Method]-0.05 {
			t.Errorf("clipped volume should not collapse as k grows: %+v", row)
		}
		prev[row.Method] = row.AvgClipped
		if row.Method == "CSKY" && row.AvgClipped > skyMax {
			skyMax = row.AvgClipped
		}
		if row.Method == "CSTA" && row.AvgClipped > staMax {
			staMax = row.AvgClipped
		}
	}
	if staMax < skyMax-0.03 {
		t.Errorf("CSTA max clipped (%.3f) should be at least CSKY max (%.3f)", staMax, skyMax)
	}
	if KValues(2)[4] != 8 || KValues(3)[4] != 16 {
		t.Error("k sweeps should end at 2^(d+1)")
	}
	if !strings.Contains(res.Table().String(), "CSTA") {
		t.Error("table should include CSTA rows")
	}
}

func TestRunFig11AndTable1(t *testing.T) {
	res, err := RunFig11(Config{Scale: 3000, Queries: 40, Seed: 7, SamplesPerNode: 64,
		Datasets: []string{"axo03"}, Variants: []rtree.Variant{rtree.Quadratic, rtree.RRStar}})
	if err != nil {
		t.Fatal(err)
	}
	// 1 dataset × 2 variants × (3 range profiles + kNN10) × 2 methods.
	if len(res.Rows) != 16 {
		t.Fatalf("expected 16 rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Relative < 0 || row.Relative > 1.001 {
			t.Errorf("clipped search must never use more leaf I/O: %+v", row)
		}
		if row.UnclippedLeafIO <= 0 {
			t.Errorf("queries should read leaves: %+v", row)
		}
	}
	t1 := AggregateTable1(res)
	if len(t1.Cells) == 0 {
		t.Fatal("Table 1 aggregation produced nothing")
	}
	var total Table1Cell
	found := false
	for _, c := range t1.Cells {
		if c.Variant == "Total" && c.Profile == "Total" {
			total, found = c, true
		}
		if c.StaReduction < -0.001 || c.StaReduction > 1 {
			t.Errorf("implausible reduction: %+v", c)
		}
	}
	if !found {
		t.Fatal("Table 1 should contain a Total/Total cell")
	}
	if total.StaReduction < total.SkyReduction-0.02 {
		t.Errorf("stairline reduction (%.3f) should be at least skyline reduction (%.3f)",
			total.StaReduction, total.SkyReduction)
	}
	if !strings.Contains(t1.Table().String(), "RR*-tree") {
		t.Error("Table 1 should include the RR*-tree row")
	}
	if !strings.Contains(res.Table().String(), "QR1") {
		t.Error("Figure 11 table should include profiles")
	}
}

// The nearest-neighbour twin of Figure 11: no clipped 10-NN search ever
// reads more leaves than the unclipped one, and on every data set the paper
// evaluates stairline clip points save some. The saving is asserted per data
// set over both variants: den03's query centres sit on ten objects of one
// leaf, so its RR*-tree already reads the floor of one leaf per query.
func TestFig11KNNRowsSaveLeafReads(t *testing.T) {
	res, err := RunFig11(Config{Scale: 3000, Queries: 40, Seed: 7, SamplesPerNode: 64,
		Variants: []rtree.Variant{rtree.Hilbert, rtree.RRStar}})
	if err != nil {
		t.Fatal(err)
	}
	unclipped, clipped := map[string]int64{}, map[string]int64{}
	for _, row := range res.Rows {
		if row.Profile != knnProfile {
			continue
		}
		if row.ClippedLeafIO > row.UnclippedLeafIO || row.UnclippedLeafIO <= 0 {
			t.Errorf("a clipped 10-NN search must never read more leaves: %+v", row)
		}
		if row.Method == core.MethodStairline.String() {
			unclipped[row.Dataset] += row.UnclippedLeafIO
			clipped[row.Dataset] += row.ClippedLeafIO
		}
	}
	for _, name := range datasets.PaperNames() {
		if clipped[name] >= unclipped[name] {
			t.Errorf("%s: CSTA read %d leaves for %s, the unclipped trees %d", name, clipped[name], knnProfile, unclipped[name])
		}
	}
}

func TestRunFig12(t *testing.T) {
	res, err := RunFig12(Config{Scale: 3000, Seed: 7, SamplesPerNode: 64,
		Datasets: []string{"par02"}, Variants: []rtree.Variant{rtree.Quadratic, rtree.RStar}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Inserts <= 0 {
			t.Errorf("no inserts recorded: %+v", row)
		}
		sum := row.SplitsPerInsert + row.MBBPerInsert + row.CBBOnlyPerInsert
		if diff := row.ReclipsPerInsert - sum; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("cause decomposition does not sum up: %+v", row)
		}
		// The Section IV-D strategies must avoid the worst case of one extra
		// re-clip per insert on top of every MBB change.
		if row.CBBOnlyPerInsert > 1.0 {
			t.Errorf("CBB-only re-clips per insert too high: %+v", row)
		}
	}
	if !strings.Contains(res.Table().String(), "reclips/insert") {
		t.Error("table header missing")
	}
}

func TestRunFig13(t *testing.T) {
	res, err := RunFig13(Config{Scale: 2500, Seed: 7, Datasets: []string{"rea02", "axo03"}})
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 2 methods.
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.LeafBytes <= 0 || row.DirBytes < 0 {
			t.Errorf("implausible storage breakdown: %+v", row)
		}
		if row.ClipShare < 0 || row.ClipShare > 0.25 {
			t.Errorf("clip-point share should stay in single-digit percent territory: %+v", row)
		}
		if row.LeafBytes < row.DirBytes {
			t.Errorf("leaf nodes should dominate storage: %+v", row)
		}
	}
	if !strings.Contains(res.Table().String(), "clip share") {
		t.Error("table header missing")
	}
}

func TestRunFig14(t *testing.T) {
	res, err := RunFig14(Config{Scale: 2000, Seed: 7, Datasets: []string{"par02"}})
	if err != nil {
		t.Fatal(err)
	}
	// 4 rows per dataset: HR, R*, CSKY-RR*, CSTA-RR*.
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.RelativeToRR <= 0 {
			t.Errorf("relative build time must be positive: %+v", row)
		}
		if row.ClipShareOfIt < 0 || row.ClipShareOfIt > 1 {
			t.Errorf("clip share out of range: %+v", row)
		}
	}
	if !strings.Contains(res.Table().String(), "CSTA-RR*-tree") {
		t.Error("table should include the clipped RR*-tree rows")
	}
}

func TestRunJoin(t *testing.T) {
	res, err := RunJoin(Config{Scale: 2000, Seed: 7, Variants: []rtree.Variant{rtree.RStar}})
	if err != nil {
		t.Fatal(err)
	}
	// 1 variant × 2 strategies.
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(res.Rows))
	}
	var inlj, stt JoinRow
	for _, row := range res.Rows {
		if row.Strategy == "INLJ" {
			inlj = row
		} else {
			stt = row
		}
		if row.Reduction < -0.001 || row.Reduction > 1 {
			t.Errorf("implausible reduction: %+v", row)
		}
		if row.ClippedLeafIO > row.UnclippedLeafIO {
			t.Errorf("clipping increased join I/O: %+v", row)
		}
	}
	if inlj.Pairs != stt.Pairs {
		t.Errorf("strategies disagree on result size: %d vs %d", inlj.Pairs, stt.Pairs)
	}
	if stt.UnclippedLeafIO >= inlj.UnclippedLeafIO {
		t.Errorf("STT (%d) should access fewer leaves than INLJ (%d)", stt.UnclippedLeafIO, inlj.UnclippedLeafIO)
	}
	if !strings.Contains(res.Table().String(), "INLJ") {
		t.Error("table should include the INLJ row")
	}
}

func TestRunFig15(t *testing.T) {
	res, err := RunFig15(Config{Scale: 2500, Queries: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 2 variants × 3 indexes × 3 profiles.
	if len(res.Rows) != 36 {
		t.Fatalf("expected 36 rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.AvgQuery <= 0 {
			t.Errorf("query time not measured: %+v", row)
		}
	}
	if !strings.Contains(res.Table().String(), "par03") {
		t.Error("table should include par03")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Demo", "a", "bb")
	tbl.AddRow("x", 1.5)
	tbl.AddRow("longer", "v")
	tbl.AddNote("n=%d", 2)
	s := tbl.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "1.50") || !strings.Contains(s, "note: n=2") {
		t.Errorf("table rendering incomplete:\n%s", s)
	}
	if Pct(0.125) != "12.5%" {
		t.Errorf("Pct wrong: %s", Pct(0.125))
	}
}
