package join

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

// refJoiner is the synchronised traversal as it was before the
// restrict-then-compare kernel, kept verbatim as the definition the kernel is
// tested against: every slot of one node is tested against every slot of the
// other, through Rect views, in slot order.
type refJoiner struct {
	SidePair
	leftCtr, rightCtr *storage.Counter
	visit             func(Pair)
	pairs             int64
	rects             []geom.Rect // joinLeaves scratch
	sel               core.Sel    // dead scratch: the probe laid out for Record.Dead
}

func (j *refJoiner) admissible(leftID rtree.NodeID, leftMBB geom.Rect, rightID rtree.NodeID, rightMBB geom.Rect) bool {
	return leftMBB.Intersects(rightMBB) && !j.dead(j.Left, leftID, rightMBB) && !j.dead(j.Right, rightID, leftMBB)
}

func (j *refJoiner) dead(s *clipindex.Snap, id rtree.NodeID, probe geom.Rect) bool {
	rec := s.Record(id)
	if len(rec) == 0 {
		return false
	}
	j.sel.Query(probe)
	return rec.Dead(probe.Dims(), &j.sel)
}

func (j *refJoiner) joinNodes(leftID, rightID rtree.NodeID) {
	linfo, err := j.Left.Version().Node(leftID)
	if err != nil {
		return
	}
	rinfo, err := j.Right.Version().Node(rightID)
	if err != nil {
		return
	}
	refCharge(j.Left, linfo, j.leftCtr)
	refCharge(j.Right, rinfo, j.rightCtr)

	switch {
	case linfo.Leaf && rinfo.Leaf:
		j.joinLeaves(linfo, rinfo)
	case linfo.Leaf:
		// Descend only the right tree.
		for k := 0; k < rinfo.Len(); k++ {
			if j.admissible(linfo.ID, linfo.MBB, rinfo.Child(k), rinfo.Rect(k)) {
				j.joinLeafWithNode(linfo, j.Right, j.rightCtr, rinfo.Child(k))
			}
		}
	case rinfo.Leaf:
		for i := 0; i < linfo.Len(); i++ {
			if j.admissible(linfo.Child(i), linfo.Rect(i), rinfo.ID, rinfo.MBB) {
				j.joinNodeWithLeaf(j.Left, j.leftCtr, linfo.Child(i), rinfo)
			}
		}
	default:
		for i := 0; i < linfo.Len(); i++ {
			lc, lr := linfo.Child(i), linfo.Rect(i)
			for k := 0; k < rinfo.Len(); k++ {
				if j.admissible(lc, lr, rinfo.Child(k), rinfo.Rect(k)) {
					j.joinNodes(lc, rinfo.Child(k))
				}
			}
		}
	}
}

func (j *refJoiner) joinLeaves(left, right rtree.NodeInfo) {
	rr := slices.Grow(j.rects[:0], right.Len())
	for k := 0; k < right.Len(); k++ {
		rr = append(rr, right.Rect(k))
	}
	j.rects = rr
	for i := 0; i < left.Len(); i++ {
		lr := left.Rect(i)
		for k := range rr {
			if lr.Intersects(rr[k]) {
				j.pairs++
				if j.visit != nil {
					j.visit(Pair{Left: left.Object(i), Right: right.Object(k)})
				}
			}
		}
	}
}

func (j *refJoiner) joinLeafWithNode(leaf rtree.NodeInfo, other *clipindex.Snap, ctr *storage.Counter, otherID rtree.NodeID) {
	oinfo, err := other.Version().Node(otherID)
	if err != nil {
		return
	}
	refCharge(other, oinfo, ctr)
	if oinfo.Leaf {
		j.joinLeaves(leaf, oinfo)
		return
	}
	for k := 0; k < oinfo.Len(); k++ {
		child, rect := oinfo.Child(k), oinfo.Rect(k)
		if !leaf.MBB.Intersects(rect) || j.dead(other, child, leaf.MBB) {
			continue
		}
		j.joinLeafWithNode(leaf, other, ctr, child)
	}
}

func (j *refJoiner) joinNodeWithLeaf(other *clipindex.Snap, ctr *storage.Counter, otherID rtree.NodeID, leaf rtree.NodeInfo) {
	oinfo, err := other.Version().Node(otherID)
	if err != nil {
		return
	}
	refCharge(other, oinfo, ctr)
	if oinfo.Leaf {
		j.joinLeaves(oinfo, leaf)
		return
	}
	for i := 0; i < oinfo.Len(); i++ {
		child, rect := oinfo.Child(i), oinfo.Rect(i)
		if !rect.Intersects(leaf.MBB) || j.dead(other, child, leaf.MBB) {
			continue
		}
		j.joinNodeWithLeaf(other, ctr, child, leaf)
	}
}

func refCharge(s *clipindex.Snap, info rtree.NodeInfo, ctr *storage.Counter) {
	s.Version().Tree().ChargeNodeRead(&info, ctr)
}

// refSTT is the sequential join of the reference: the live side pairs in
// order, every traversal on private counters (nothing is folded into the
// trees' own).
func refSTT(pairs []SidePair, visit func(Pair)) Result {
	var res Result
	for _, p := range pairs {
		lv, rv := p.Left.Version(), p.Right.Version()
		if lv.RootID() == rtree.InvalidNode || rv.RootID() == rtree.InvalidNode {
			continue
		}
		if len(pairs) > 1 && !lv.Bounds().Intersects(rv.Bounds()) {
			continue
		}
		j := &refJoiner{SidePair: p, visit: visit, leftCtr: &storage.Counter{}, rightCtr: &storage.Counter{}}
		j.joinNodes(lv.RootID(), rv.RootID())
		res.Pairs += j.pairs
		res.IO = res.IO.Add(j.leftCtr.Snapshot()).Add(j.rightCtr.Snapshot())
	}
	return res
}

// gridItems draws n rectangles on a small integer grid, so equal, touching
// and degenerate (zero-extent) rectangles are all common.
func gridItems(rng *rand.Rand, n, dims, span int) []rtree.Item {
	items := make([]rtree.Item, n)
	for i := range items {
		lo, hi := make(geom.Point, dims), make(geom.Point, dims)
		for d := range lo {
			lo[d] = float64(rng.Intn(span))
			hi[d] = lo[d] + float64(rng.Intn(4))
		}
		items[i] = rtree.Item{Object: rtree.ObjectID(i), Rect: geom.Rect{Lo: lo, Hi: hi}}
	}
	return items
}

// joinSide is one join input of the matrix: one tree, or four over disjoint
// quarters of dimension 0 (the shape a sharded engine hands the join), each
// with the files its page-store variants open.
type joinSide struct {
	trees  []*rtree.Tree
	idxs   []*clipindex.Index
	metas  []snapshot.Meta
	prefix string
}

func buildSide(t testing.TB, dir, name string, items []rtree.Item, dims, shards, span int, params core.Params, method snapshot.ClipMethod) *joinSide {
	t.Helper()
	s := &joinSide{prefix: filepath.Join(dir, name)}
	parts := make([][]rtree.Item, shards)
	for _, it := range items {
		k := int(it.Rect.Lo[0]) * shards / span
		parts[k] = append(parts[k], it)
	}
	for _, part := range parts {
		cfg := rtree.Config{Dims: dims, MaxEntries: 8, MinEntries: 3, Variant: rtree.RStar}
		tree := rtree.MustNew(cfg)
		if err := tree.BulkLoad(part); err != nil {
			t.Fatal(err)
		}
		idx, err := clipindex.New(tree, params)
		if err != nil {
			t.Fatal(err)
		}
		eff := tree.Config()
		s.trees, s.idxs = append(s.trees, tree), append(s.idxs, idx)
		s.metas = append(s.metas, snapshot.Meta{
			Dims: eff.Dims, Variant: eff.Variant, MaxEntries: eff.MaxEntries, MinEntries: eff.MinEntries,
			HilbertBits: eff.HilbertBits, Universe: eff.Universe,
			ClipMethod: method, MaxClipPoints: params.K, ClipTau: params.Tau,
		})
	}
	return s
}

// snaps opens the side through one store: "mem" is the trees as built; "v1"
// and "v2" are lazily opened snapshot files behind a FilePager; "mmap" is the
// v2 file behind the mapping. The files are written on first use.
func (s *joinSide) snaps(t testing.TB, store string) []*clipindex.Snap {
	t.Helper()
	out := make([]*clipindex.Snap, len(s.trees))
	for i, tree := range s.trees {
		if store == "mem" {
			out[i] = s.idxs[i].Snap()
			continue
		}
		meta := s.metas[i]
		meta.Format = snapshot.FormatV1
		if store != "v1" {
			meta.Format = snapshot.FormatV2
		}
		path := fmt.Sprintf("%s-%d-v%d.cbb", s.prefix, i, meta.Format)
		if _, err := os.Stat(path); err != nil {
			if err := snapshot.WriteFile(path, tree, s.idxs[i], meta); err != nil {
				t.Fatal(err)
			}
		}
		var ps storage.PageStore
		var snap *snapshot.Snapshot
		if store == "mmap" {
			ms, err := storage.OpenMmapStore(path)
			if errors.Is(err, storage.ErrMmapUnsupported) {
				t.Skip("no mmap on this platform")
			} else if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ms.Close() })
			if snap, err = snapshot.Read(ms); err != nil {
				t.Fatal(err)
			}
			ps = ms
		} else {
			var fp *storage.FilePager
			var err error
			if snap, fp, err = snapshot.OpenFile(path, true); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fp.Close() })
			ps = fp
		}
		base, err := snap.OpenTree(ps, true)
		if err != nil {
			t.Fatal(err)
		}
		params, _ := snap.Meta.ClipParams()
		idx, err := clipindex.Restore(base, params, snap.Table)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = idx.Snap()
	}
	return out
}

func crossPairs(l, r []*clipindex.Snap) []SidePair {
	var pairs []SidePair
	for _, ls := range l {
		for _, rs := range r {
			pairs = append(pairs, SidePair{Left: ls, Right: rs})
		}
	}
	return pairs
}

func sortPairs(pairs []Pair) {
	sort.Slice(pairs, func(i, k int) bool {
		if pairs[i].Left != pairs[k].Left {
			return pairs[i].Left < pairs[k].Left
		}
		return pairs[i].Right < pairs[k].Right
	})
}

// TestSTTMatchesReference is the kernel's equivalence matrix: against the
// nested-loop reference on the in-memory trees, the kernel returns the same
// ordered pair list sequentially, and the same pair multiset and exactly the
// same I/O for one, two and four workers — for one to three dimensions, no
// clipping, CSTA and CSKY, a deep tree joined with a shallow one either way
// round (both unbalanced descents) and with itself, one tree or four shards a
// side, and every page store.
func TestSTTMatchesReference(t *testing.T) {
	clips := []struct {
		name   string
		method snapshot.ClipMethod
		params func(dims int) core.Params
	}{
		{"none", snapshot.ClipNone, func(int) core.Params { return core.Params{Method: core.MethodStairline} }},
		{"CSTA", snapshot.ClipStairline, core.DefaultParams},
		{"CSKY", snapshot.ClipSkyline, func(dims int) core.Params {
			p := core.DefaultParams(dims)
			p.Method = core.MethodSkyline
			return p
		}},
	}
	for dims := 1; dims <= 3; dims++ {
		for _, clip := range clips {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("dims=%d/clip=%s/shards=%d", dims, clip.name, shards), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100*dims + shards)))
					// The span keeps the density, and so the pair count, about
					// level across dimensions.
					span := []int{0, 400, 48, 16}[dims]
					dir := t.TempDir()
					deep := buildSide(t, dir, "deep", gridItems(rng, 1000, dims, span), dims, shards, span, clip.params(dims), clip.method)
					flat := buildSide(t, dir, "flat", gridItems(rng, 30, dims, span), dims, shards, span, clip.params(dims), clip.method)
					if shards == 1 && (deep.trees[0].Height() < 3 || flat.trees[0].Height() > 2) {
						t.Fatalf("heights %d and %d do not force an unbalanced descent", deep.trees[0].Height(), flat.trees[0].Height())
					}
					shapes := []struct {
						name        string
						left, right *joinSide
					}{{"deep-flat", deep, flat}, {"flat-deep", flat, deep}, {"self", deep, deep}}
					for _, shape := range shapes {
						var want []Pair
						ref := refSTT(crossPairs(shape.left.snaps(t, "mem"), shape.right.snaps(t, "mem")), func(p Pair) { want = append(want, p) })
						if ref.Pairs == 0 || int64(len(want)) != ref.Pairs {
							t.Fatalf("%s: reference found %d pairs, emitted %d", shape.name, ref.Pairs, len(want))
						}
						sorted := slices.Clone(want)
						sortPairs(sorted)
						for _, store := range []string{"mem", "v1", "v2", "mmap"} {
							t.Run(shape.name+"/"+store, func(t *testing.T) {
								for _, workers := range []int{1, 2, 4} {
									// Fresh opens per run: every run faults its pages in itself.
									l := shape.left.snaps(t, store)
									r := l
									if shape.right != shape.left {
										r = shape.right.snaps(t, store)
									}
									got, res := sortedPairs(func(visit func(Pair)) (Result, error) {
										if workers > 1 {
											return STT(crossPairs(l, r), workers, visit)
										}
										var ordered []Pair
										res, err := STT(crossPairs(l, r), 1, func(p Pair) { ordered = append(ordered, p); visit(p) })
										if !slices.Equal(ordered, want) {
											t.Errorf("sequential pair order differs from the reference (%d pairs, want %d)", len(ordered), len(want))
										}
										return res, err
									}, t)
									if res.Pairs != ref.Pairs || !slices.Equal(got, sorted) {
										t.Errorf("workers=%d: %d pairs (%d emitted), reference %d", workers, res.Pairs, len(got), ref.Pairs)
									}
									if res.IO != ref.IO {
										t.Errorf("workers=%d: IO %+v, reference %+v", workers, res.IO, ref.IO)
									}
								}
							})
						}
					}
				})
			}
		}
	}
}

// TestSTTReportsUnreadablePage pins exact-or-error for the STT join: a join
// that runs into a page it cannot read returns that error, for every worker
// count, instead of a short pair count.
func TestSTTReportsUnreadablePage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dir := t.TempDir()
	side := buildSide(t, dir, "side", gridItems(rng, 1200, 2, 48), 2, 1, 48, core.DefaultParams(2), snapshot.ClipStairline)
	other := buildSide(t, dir, "other", gridItems(rng, 300, 2, 48), 2, 1, 48, core.DefaultParams(2), snapshot.ClipStairline).snaps(t, "mem")
	want := refSTT(crossPairs(side.snaps(t, "mem"), other), nil)

	// Zero one leaf page of the v1 file: its stored node id no longer matches.
	side.snaps(t, "v1")
	path := fmt.Sprintf("%s-0-v%d.cbb", side.prefix, snapshot.FormatV1)
	snap, fp, err := snapshot.OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	damaged := false
	for id, pid := range snap.Pages {
		if buf, kind, err := fp.Read(pid); err != nil {
			t.Fatal(err)
		} else if kind == storage.KindLeaf && id != 0 && !damaged {
			if err := fp.Write(pid, make([]byte, len(buf))); err != nil {
				t.Fatal(err)
			}
			damaged = true
		}
	}
	if err := fp.Close(); err != nil || !damaged {
		t.Fatalf("damaging a leaf page: done %v, close %v", damaged, err)
	}

	for _, workers := range []int{1, 2, 4} {
		snap, fp, err := snapshot.OpenFile(path, true)
		if err != nil {
			t.Fatal(err)
		}
		base, err := snap.OpenTree(fp, true)
		if err != nil {
			t.Fatal(err)
		}
		params, _ := snap.Meta.ClipParams()
		idx, err := clipindex.Restore(base, params, snap.Table)
		if err != nil {
			t.Fatal(err)
		}
		for _, pairs := range [][]SidePair{crossPairs([]*clipindex.Snap{idx.Snap()}, other), crossPairs(other, []*clipindex.Snap{idx.Snap()})} {
			if res, err := STT(pairs, workers, nil); err == nil {
				t.Errorf("workers=%d: join over an unreadable page returned %d pairs and no error (intact join: %d)", workers, res.Pairs, want.Pairs)
			}
		}
		fp.Close()
	}
}

// FuzzJoinNodePairMatchesReference joins two fuzzed rectangle sets, as two
// single leaves and as small-fanout trees, and compares the kernel with the
// nested loop: the ordered list of emitted pairs, the admitted pairs of root
// children (what the parallel join partitions), and the I/O.
func FuzzJoinNodePairMatchesReference(f *testing.F) {
	f.Add([]byte{2, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28})
	f.Add([]byte{1, 40, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 250, 4, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{3, 200, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		dims, nl, data := 1+int(data[0])%3, 1+int(data[1])%120, data[2:]
		// Coordinates cycle through the input, so a short input still fills
		// both sets; the left set takes the first nl rectangles.
		rect := func(i int) geom.Rect {
			lo, hi := make(geom.Point, dims), make(geom.Point, dims)
			for d := range lo {
				b := data[(i*dims+d)%len(data)]
				lo[d] = float64(b % 16)
				hi[d] = lo[d] + float64(b>>4%4)
			}
			return geom.Rect{Lo: lo, Hi: hi}
		}
		total := min(2*nl, len(data)/dims+2)
		var sets [2][]rtree.Item
		for i := 0; i < total; i++ {
			s := &sets[min(i/nl, 1)]
			*s = append(*s, rtree.Item{Object: rtree.ObjectID(len(*s)), Rect: rect(i)})
		}
		if len(sets[1]) == 0 {
			return
		}
		for _, fanout := range []int{4, 128} {
			var snaps [2]*clipindex.Snap
			for s, items := range sets {
				tree := rtree.MustNew(rtree.Config{Dims: dims, MaxEntries: fanout, MinEntries: fanout * 2 / 5, Variant: rtree.Quadratic})
				if err := tree.BulkLoad(items); err != nil {
					t.Fatal(err)
				}
				idx, err := clipindex.New(tree, core.DefaultParams(dims))
				if err != nil {
					t.Fatal(err)
				}
				snaps[s] = idx.Snap()
			}
			pair := SidePair{Left: snaps[0], Right: snaps[1]}
			var want, got []Pair
			ref := refSTT([]SidePair{pair}, func(p Pair) { want = append(want, p) })
			res, err := STT([]SidePair{pair}, 1, func(p Pair) { got = append(got, p) })
			if err != nil || res != ref || !slices.Equal(got, want) {
				t.Fatalf("fanout %d: kernel %+v (%d emitted, err %v), reference %+v (%d emitted)", fanout, res, len(got), err, ref, len(want))
			}

			// The admitted pairs of root children, kernel against nested loop.
			lv, rv := pair.Left.Version(), pair.Right.Version()
			l, _ := lv.Node(lv.RootID())
			r, _ := rv.Node(rv.RootID())
			if l.Leaf || r.Leaf {
				continue
			}
			rj := &refJoiner{SidePair: pair}
			var admitted [][2]rtree.NodeID
			for i := 0; i < l.Len(); i++ {
				for k := 0; k < r.Len(); k++ {
					if rj.admissible(l.Child(i), l.Rect(i), r.Child(k), r.Rect(k)) {
						admitted = append(admitted, [2]rtree.NodeID{l.Child(i), r.Child(k)})
					}
				}
			}
			j := &sttJoiner{snap: [2]*clipindex.Snap{pair.Left, pair.Right}, collect: true}
			j.ctr = [2]*storage.Counter{&j.io[left], &j.io[right]}
			j.joinNodes(lv.RootID(), rv.RootID())
			if !slices.Equal(j.tasks, admitted) {
				t.Fatalf("fanout %d: kernel admits root-child pairs %v, nested loop %v", fanout, j.tasks, admitted)
			}
		}
	})
}
