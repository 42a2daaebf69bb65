package metrics

import (
	"math/rand"
	"testing"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
)

func buildTree(t testing.TB, variant rtree.Variant, skinny bool, n int, seed int64) *rtree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tree := rtree.MustNew(rtree.Config{Dims: 2, MaxEntries: 10, MinEntries: 4, Variant: variant})
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		var r geom.Rect
		if skinny {
			if i%2 == 0 {
				r = geom.R(x, y, x+rng.Float64()*50, y+rng.Float64()*1.5)
			} else {
				r = geom.R(x, y, x+rng.Float64()*1.5, y+rng.Float64()*50)
			}
		} else {
			r = geom.R(x, y, x+rng.Float64()*20, y+rng.Float64()*20)
		}
		if _, err := tree.Insert(r, rtree.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

func TestTreeNodeStatsRanges(t *testing.T) {
	tree := buildTree(t, rtree.RStar, true, 1500, 1)
	s := TreeNodeStats(tree, 256, 7)
	if s.Nodes == 0 || s.LeafNodes == 0 {
		t.Fatal("no nodes measured")
	}
	if s.AvgOverlap < 0 || s.AvgOverlap > 1 {
		t.Errorf("AvgOverlap out of range: %g", s.AvgOverlap)
	}
	if s.AvgDeadSpace < 0 || s.AvgDeadSpace > 1 {
		t.Errorf("AvgDeadSpace out of range: %g", s.AvgDeadSpace)
	}
	if s.AvgLeafDeadSpace <= 0 {
		t.Error("skinny objects must produce leaf dead space")
	}
	// Skinny slivers leave most of each leaf empty, mirroring the paper's
	// observation of >= 60 % dead space.
	if s.AvgLeafDeadSpace < 0.4 {
		t.Errorf("expected substantial dead space on sliver data, got %.2f", s.AvgLeafDeadSpace)
	}
}

func TestDeadSpaceLowerForFatObjects(t *testing.T) {
	skinny := TreeNodeStats(buildTree(t, rtree.RStar, true, 1000, 2), 256, 7)
	fat := TreeNodeStats(buildTree(t, rtree.RStar, false, 1000, 2), 256, 7)
	if fat.AvgLeafDeadSpace >= skinny.AvgLeafDeadSpace {
		t.Errorf("fat objects (%.2f) should have less dead space than skinny ones (%.2f)",
			fat.AvgLeafDeadSpace, skinny.AvgLeafDeadSpace)
	}
}

func TestTreeNodeStatsDefaults(t *testing.T) {
	tree := buildTree(t, rtree.Quadratic, true, 200, 3)
	s := TreeNodeStats(tree, 0, 7) // default sample budget
	if s.Nodes == 0 {
		t.Fatal("default sample budget should still measure nodes")
	}
	empty := rtree.MustNew(rtree.DefaultConfig(2, rtree.Quadratic))
	if got := TreeNodeStats(empty, 100, 7); got.Nodes != 0 {
		t.Error("empty tree should measure zero nodes")
	}
}

func TestClippedDeadSpace(t *testing.T) {
	tree := buildTree(t, rtree.RStar, true, 1500, 4)
	idx, err := clipindex.New(tree, core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	cs := ClippedDeadSpace(idx, 256, 11)
	if cs.Nodes == 0 {
		t.Fatal("no nodes measured")
	}
	if cs.AvgClipped <= 0 {
		t.Error("clipping should remove some volume on sliver data")
	}
	if cs.AvgClipped > cs.AvgDeadSpace+0.05 {
		t.Errorf("clipped volume (%.3f) cannot exceed dead space (%.3f) by more than sampling noise",
			cs.AvgClipped, cs.AvgDeadSpace)
	}
	if cs.ClippedShareOfDead <= 0 || cs.ClippedShareOfDead > 1 {
		t.Errorf("ClippedShareOfDead out of range: %g", cs.ClippedShareOfDead)
	}
	if cs.AvgRemaining < 0 {
		t.Error("AvgRemaining must not be negative")
	}
	if cs.AvgClipPoints <= 0 {
		t.Error("AvgClipPoints should be positive")
	}
}

func TestStairlineClipsMoreThanSkyline(t *testing.T) {
	tree := buildTree(t, rtree.Quadratic, true, 1200, 5)
	sky, err := clipindex.New(tree, core.Params{K: 8, Tau: 0.025, Method: core.MethodSkyline})
	if err != nil {
		t.Fatal(err)
	}
	// Measured before the stairline index replaces the tree's records.
	skyStats := ClippedDeadSpace(sky, 256, 13)
	sta, err := clipindex.New(tree, core.Params{K: 8, Tau: 0.025, Method: core.MethodStairline})
	if err != nil {
		t.Fatal(err)
	}
	staStats := ClippedDeadSpace(sta, 256, 13)
	if staStats.AvgClipped < skyStats.AvgClipped-0.02 {
		t.Errorf("stairline clipping (%.3f) should be at least skyline clipping (%.3f)",
			staStats.AvgClipped, skyStats.AvgClipped)
	}
}

func TestMeasureIOOptimality(t *testing.T) {
	tree := buildTree(t, rtree.RRStar, true, 1500, 6)
	rng := rand.New(rand.NewSource(17))
	queries := make([]geom.Rect, 50)
	for i := range queries {
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		queries[i] = geom.MustRect(c, c.Add(geom.Pt(5, 5)))
	}
	opt := MeasureIOOptimality(tree, queries)
	if opt.Queries != 50 {
		t.Error("query count wrong")
	}
	if opt.LeafAccesses == 0 {
		t.Fatal("queries should access leaves")
	}
	if opt.UsefulAccesses > opt.LeafAccesses {
		t.Fatalf("useful accesses (%d) cannot exceed total accesses (%d)", opt.UsefulAccesses, opt.LeafAccesses)
	}
	r := opt.Ratio()
	if r <= 0 || r > 1 {
		t.Errorf("optimality ratio out of range: %g", r)
	}
	if (IOOptimality{}).Ratio() != 1 {
		t.Error("empty measurement should report ratio 1")
	}
}
