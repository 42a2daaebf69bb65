package rtree

import (
	"testing"

	"cbb/internal/core"
	"cbb/internal/datasets"
	"cbb/internal/geom"
	"cbb/internal/querygen"
)

// clippedStandIn bulk-loads n objects of a dataset stand-in into an RR*-tree,
// clips every node with the paper's parameters, and publishes the records,
// which builds the directory nodes' clip copies. It returns the tree and a
// query stream of the three selectivity profiles.
func clippedStandIn(t *testing.T, dataset string, n, queries int) (*Tree, []geom.Rect) {
	t.Helper()
	rects, err := datasets.Generate(dataset, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := datasets.Universe(dataset)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(uni.Dims(), RRStar)
	cfg.Universe = uni
	tree := MustNew(cfg)
	items := make([]Item, len(rects))
	for i, r := range rects {
		items[i] = Item{Object: ObjectID(i), Rect: r}
	}
	if err := tree.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	var clipper core.Clipper
	params := core.DefaultParams(uni.Dims())
	var infos []NodeInfo
	if err := tree.Walk(func(info NodeInfo) { infos = append(infos, info) }); err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		children := make([]geom.Rect, info.Len())
		for j := range children {
			children[j] = info.Rect(j)
		}
		tree.SetRecord(info.ID, clipper.Record(info.MBB, children, params))
	}
	tree.PublishRecords()
	gen, err := querygen.New(rects, uni, 2)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]geom.Rect, queries)
	for i := range qs {
		qs[i] = gen.Query(querygen.AllProfiles()[i%3])
	}
	return tree, qs
}

// TestClipAdmissionBand holds the grid admission of the clip copies to
// Algorithm 2 on the exact records, on the rea02 (2-D) and axo03 (3-D)
// stand-ins: for every query and every child, of every directory node, whose
// box meets the query, a certain verdict must be Record.Dead's, and the share
// of such children left to the record — the one-cell band — must stay under
// the bound recorded here (measured 0.85 % on rea02, whose clip coordinates
// often coincide with query edges, and 0.01 % on axo03; the bounds leave room
// for other seeds, not for a wider band).
func TestClipAdmissionBand(t *testing.T) {
	for _, c := range []struct {
		dataset string
		maxBand float64
	}{{"rea02", 0.02}, {"axo03", 0.005}} {
		t.Run(c.dataset, func(t *testing.T) {
			tree, queries := clippedStandIn(t, c.dataset, 50000, 2000)
			if err := tree.Validate(); err != nil {
				t.Fatal(err)
			}
			v := tree.CurrentVersion()
			dims := tree.Dims()
			var dirs []*node
			if err := v.walk(func(n *node) error {
				if !n.leaf {
					if n.clips == nil {
						t.Fatalf("directory node %d has no clip copy", n.id)
					}
					dirs = append(dirs, n)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var pairs, band, dead int
			var qlo, qhi [geom.MaxDims]float64
			var qg [2 * geom.MaxDims]uint16
			var sel core.Sel
			var probe clipProbe
			for _, q := range queries {
				copy(qlo[:], q.Lo)
				copy(qhi[:], q.Hi)
				sel.Query(q)
				for _, n := range dirs {
					quantiseQuery(n.qmbb, dims, qlo[:], qhi[:], &qg)
					probe.set(&qg, dims)
					for i := range n.refs {
						rec, pts := v.dir.record(n.child(i)), n.clips.points(i)
						if len(pts) != rec.Len(dims) {
							t.Fatalf("node %d child %d: %d packed points for a record of %d", n.id, i, len(pts), rec.Len(dims))
						}
						if len(pts) == 0 || !boxHits(n.boxes, i*2*dims, dims, &qlo, &qhi) {
							continue
						}
						pairs++
						exact := rec.Dead(dims, &sel)
						switch probe.verdict(pts) {
						case clipBand:
							band++
						case clipDead:
							if !exact {
								t.Fatalf("query %v, node %d child %d: the grid says dead, the record alive", q, n.id, n.child(i))
							}
							dead++
						case clipAlive:
							if exact {
								t.Fatalf("query %v, node %d child %d: the grid says alive, the record dead", q, n.id, n.child(i))
							}
						}
					}
				}
			}
			share := float64(band) / float64(pairs)
			t.Logf("%s: %d (query, child) pairs with clip points, %d certainly dead, %d (%.3f %%) in the band", c.dataset, pairs, dead, band, 100*share)
			if pairs == 0 || dead == 0 {
				t.Fatalf("%d pairs, %d dead: the test is vacuous", pairs, dead)
			}
			if share > c.maxBand {
				t.Errorf("%.3f %% of the pairs fell back to the exact record, bound %.3f %%", 100*share, 100*c.maxBand)
			}
		})
	}
}
