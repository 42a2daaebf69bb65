package rtree

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/storage"
)

// This file keeps the nearest-neighbour search as it was before every node
// it reads went through its planes from the root on — a node read before the
// first bound computed the exact MINDIST of every entry — as the reference
// the traversal of knn.go must match answer for answer and read for read.

// refScratch is the reference's pooled working state: the fields of
// searchScratch it used, and the children waiting to join the frontier.
type refScratch struct {
	front, best []knnEntry
	read        []refKNNRead
	io          []storage.Snapshot
	pools       []*storage.BufferPool
	qlo         [geom.MaxDims]float64
	qhi         [geom.MaxDims]float64
	qg          [2 * geom.MaxDims]uint16
	sel         core.Sel
	mask        survivorMask
	rest        []knnEntry // children not yet on the frontier (refKNNRead)
}

var refScratchPool = sync.Pool{New: func() interface{} { return new(refScratch) }}

// refKNNRead is the box array of a node that was read (for a root, its MBB
// alone) and the source it belongs to, kept so that an entry's box can be
// found again: a node's when it is popped, an object's when it is returned.
// rest[lo:hi] of the query's scratch are the node's children not yet on the
// frontier, when it was read before the search had a bound (refAdmit).
type refKNNRead struct {
	boxes  []float64
	src    int
	lo, hi int32
}

// refNearestNeighbors is NearestNeighbors as it was before nodes read
// before the first bound were scanned on their planes, kept verbatim (but for
// its scratch, whose types follow) as the reference of knn_reference_test.go.
// It returns the k objects of the sources (one tree, or the
// shards of one index) whose rectangles are closest to p by minimum Euclidean
// distance (zero for one containing p), ordered by ascending (DistSq,
// ObjectID) — a function of the indexed items alone, whatever the shape of
// the trees and however many there are. A non-finite point, one whose
// dimensionality is not the sources', or k < 1 gets nil; the point is
// validated here and nowhere else.
//
// The traversal is best-first over one frontier for all sources: a min-heap
// of unread nodes, roots included, keyed by a lower bound of the distance to
// anything below them. Objects never enter it. They go into a max-heap of
// the k best seen so far, whose head — worst — is the pruning bound from the
// first leaf on: an entry beyond it is not pushed, and a node's quantised
// planes are scanned against the ball of that radius before any exact
// distance is computed. A huge k costs O(log k) per candidate and never an
// allocation sized by k. Until k objects were seen there is no bound, and a
// directory node read then puts only its nearest child on the frontier; the
// others wait beside it, and each pop of an entry of that node brings the
// next nearest, or — once there is a bound — all that are within it. The
// frontier always holds each node's nearest waiting child, so it pops the
// same entries in the same (key, id) order as if all had been pushed.
//
// A bound starts as the MINDIST of the entry's box. When the entry is popped
// and its node has clip points, core.Record.MinDistSq lifts it: a point
// inside or facing a certified-dead corner is farther from what is live in
// the node than from its box. That happens lazily — one record lookup per
// node about to be read, none per entry pushed — and a node whose lifted
// bound passes the frontier's head is queued again, one beyond worst is
// skipped unread. Every bound is admissible and the search best-first, so
// the answer is exact under any of them: without records the nodes read are
// exactly those with MINDIST ≤ the k-th distance, and records only ever
// remove reads. Each source tallies its node accesses, and each tally is
// charged to its tree's counter once, when the query ends; the sum of the
// tallies is returned beside the answer. A node that cannot be read ends the
// search: its error is returned, with the tally and no neighbours.
func refNearestNeighbors(k int, p geom.Point, srcs ...KNNSource) (_ []Neighbor, io storage.Snapshot, err error) {
	dims := len(p)
	if k <= 0 || dims > geom.MaxDims || !p.Valid() {
		return nil, io, nil
	}
	sc := refScratchPool.Get().(*refScratch)
	front, best, read := sc.front[:0], sc.best[:0], sc.read[:0]
	tally := append(sc.io[:0], make([]storage.Snapshot, len(srcs))...)
	pools := sc.pools[:0]
	for i, s := range srcs {
		pools = append(pools, s.Version.tree.pool.Load())
		v := s.Version
		if v.root == InvalidNode || v.tree.cfg.Dims != dims {
			continue
		}
		var root *node
		if root, err = v.node(v.root); err != nil {
			break
		}
		// A root's box is its own MBB, when it has one on record.
		e, mbb := knnEntry{id: int64(v.root), from: int32(len(read))}, []float64(nil)
		if len(root.qmbb) == 2*dims {
			mbb, e.key = root.qmbb, minDistSq(p, root.qmbb, 0, dims)
		}
		read = append(read, refKNNRead{boxes: mbb, src: i})
		front = heapPush(front, e, false)
	}
	sc.sel.Query(geom.Rect{Lo: p, Hi: p})

	// worst is the k-th best distance seen, +Inf until k objects were.
	worst := math.Inf(1)
	for err == nil && len(front) > 0 && front[0].key <= worst {
		e := front[0]
		front = heapPop(front)
		from := read[e.from]
		if from.lo < from.hi {
			front, read[e.from].hi = refAdmit(front, sc.rest, from.lo, from.hi, worst)
		}
		v := srcs[from.src].Version
		if srcs[from.src].Clipped && len(from.boxes) > 0 {
			if rec := v.dir.record(NodeID(e.id)); len(rec) > 0 {
				e.key = max(e.key, rec.MinDistSq(dims, &sc.sel, from.boxes[int(e.slot)*2*dims:][:2*dims]))
				if e.key > worst {
					continue
				}
				if len(front) > 0 && e.key > front[0].key {
					// Popped again, it lifts to the same bound and is read.
					front = heapPush(front, e, false)
					continue
				}
			}
		}
		var n *node
		if n, err = v.node(NodeID(e.id)); err != nil {
			break
		}
		chargeReadNode(pools[from.src], n, &tally[from.src])
		count := n.count()
		mask := sc.mask.sized(count)
		if worst <= math.MaxFloat64 && n.hasPlanes(dims) {
			// Quantised prefilter: every entry that can still matter (exact
			// distance d <= worst) intersects the ball of radius sqrt(worst)
			// around p, hence its bounding box. Grid-testing that box against
			// the SoA planes (conservative, see quant.go) spares the entries it
			// rules out the exact distance; survivors get it and the identical
			// test, so the filter changes nothing but time. The box is padded
			// outward by one ulp per rounding step (sqrt and each endpoint sum)
			// so float rounding can never shrink it below the true ball.
			r := math.Nextafter(math.Sqrt(worst), math.Inf(1))
			for d, x := range p {
				sc.qlo[d] = math.Nextafter(x-r, math.Inf(-1))
				sc.qhi[d] = math.Nextafter(x+r, math.Inf(1))
			}
			quantiseQuery(n.qmbb, dims, sc.qlo[:], sc.qhi[:], &sc.qg)
			scanPlanes(n.leaf, n.qplanes, count, dims, &sc.qg, mask)
		} else { // nothing to filter by yet, or with: every slot survives
			for w := range mask {
				mask[w] = ^uint64(0) >> max(0, (w+1)<<6-count)
			}
		}
		here, lo := int32(len(read)), len(sc.rest)
		read = append(read, refKNNRead{boxes: n.boxes, src: from.src})
		for w, m := range mask {
			for ; m != 0; m &= m - 1 {
				i := w<<6 + bits.TrailingZeros64(m)
				d := minDistSq(p, n.boxes, i*2*dims, dims)
				switch o := (knnEntry{key: d, id: n.refs[i], from: here, slot: int32(i)}); {
				case d > worst:
				case !n.leaf:
					// Below a lifted node nothing is nearer than its bound.
					o.key = max(d, e.key)
					if worst > math.MaxFloat64 {
						sc.rest = append(sc.rest, o)
					} else {
						front = heapPush(front, o, false)
					}
				case len(best) < k:
					if best = heapPush(best, o, true); len(best) == k {
						worst = best[0].key
					}
				case o.before(&best[0], false):
					heapSift(best, o, true)
					worst = best[0].key
				}
			}
		}
		if len(sc.rest) > lo {
			var hi int32
			front, hi = refAdmit(front, sc.rest, int32(lo), int32(len(sc.rest)), worst)
			sc.rest = sc.rest[:hi]
			read[here].lo, read[here].hi = int32(lo), hi
		}
	}

	// Heap-sort the candidates in place into answer order and copy them out.
	var out []Neighbor
	if err != nil {
		best = best[:0]
	}
	if len(best) > 0 {
		out = make([]Neighbor, len(best))
	}
	for end := len(best) - 1; end > 0; end-- {
		last := best[0]
		heapSift(best[:end], best[end], true)
		best[end] = last
	}
	for i, o := range best {
		out[i] = Neighbor{Object: ObjectID(o.id), Rect: boxRect(read[o.from].boxes, int(o.slot), dims), DistSq: o.key}
	}
	for i, s := range srcs {
		s.Version.tree.counter.Add(tally[i])
		io = io.Add(tally[i])
	}
	// Drop the references into node storage: a pooled scratch pins nothing.
	clear(read)
	clear(pools)
	sc.front, sc.best, sc.read, sc.io, sc.pools, sc.rest = front[:0], best[:0], read[:0], tally[:0], pools[:0], sc.rest[:0]
	refScratchPool.Put(sc)
	return out, io, err
}

// refAdmit moves children of a node read before the search had a bound from
// rest[lo:hi] onto the frontier: while there is still none, the (key, id)-least
// alone, the last child taking its place; otherwise all within worst. It
// returns the frontier and the new end of the node's waiting children.
func refAdmit(front, rest []knnEntry, lo, hi int32, worst float64) ([]knnEntry, int32) {
	if worst <= math.MaxFloat64 {
		for _, o := range rest[lo:hi] {
			if o.key <= worst {
				front = heapPush(front, o, false)
			}
		}
		return front, lo
	}
	m := lo
	for i := lo + 1; i < hi; i++ {
		if rest[i].before(&rest[m], false) {
			m = i
		}
	}
	front = heapPush(front, rest[m], false)
	rest[m] = rest[hi-1]
	return front, hi - 1
}

// knnCorpus is n boxes of random position in [0, 1000]^d and sides up to 12,
// a quarter of them exact duplicates of earlier ones (ties at every
// distance, decided by id alone) and a quarter grown by 120 in every
// dimension (ties at distance 0), like the cbb package's tiedCorpus. A flat
// dimension, when not negative, is collapsed onto the plane x = 500: every
// node is degenerate in it.
func knnCorpus(d, n int, seed int64, flat int) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		r := randRect(rng, d, 1000, 12)
		switch i % 4 {
		case 1:
			r = items[rng.Intn(i)].Rect
		case 2:
			for j := 0; j < d; j++ {
				r.Lo[j] -= 120
				r.Hi[j] += 120
			}
		}
		if flat >= 0 {
			r = geom.Rect{Lo: append(geom.Point(nil), r.Lo...), Hi: append(geom.Point(nil), r.Hi...)}
			r.Lo[flat], r.Hi[flat] = 500, 500
		}
		items[i] = Item{Object: ObjectID(i), Rect: r}
	}
	return items
}

// gridCorpus is a 1-D corpus of points on the integers of [0, 65535], both
// ends included, each position held one to three times under consecutive
// ids: the root's grid then has a cell edge on every coordinate, and leaves
// split between copies of a point, so a ball that stops an ulp short of a
// neighbour misses a tie.
func gridCorpus(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, 0, n)
	for len(items) < n {
		x := float64(rng.Intn(65536))
		switch len(items) {
		case 0:
			x = 0
		case 2:
			x = 65535
		}
		for c := rng.Intn(3); c >= 0; c-- {
			items = append(items, Item{Object: ObjectID(len(items)), Rect: geom.Rect{Lo: geom.Point{x}, Hi: geom.Point{x}}})
		}
	}
	return items
}

// knnTree builds one tree of items, bulk-loaded or inserted one by one, and
// when clipped gives every node the paper's clip record.
func knnTree(tb testing.TB, cfg Config, items []Item, bulk, clipped bool) *Tree {
	tb.Helper()
	tr := MustNew(cfg)
	if bulk {
		if err := tr.BulkLoad(items); err != nil {
			tb.Fatal(err)
		}
	} else {
		for _, it := range items {
			if _, err := tr.Insert(it.Rect, it.Object); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if clipped {
		var clipper core.Clipper
		params := core.DefaultParams(cfg.Dims)
		var infos []NodeInfo
		if err := tr.Walk(func(info NodeInfo) { infos = append(infos, info) }); err != nil {
			tb.Fatal(err)
		}
		for _, info := range infos {
			children := make([]geom.Rect, info.Len())
			for j := range children {
				children[j] = info.Rect(j)
			}
			tr.SetRecord(info.ID, clipper.Record(info.MBB, children, params))
		}
		tr.PublishRecords()
	}
	return tr
}

// knnProbePoints are points inside the data (object centres), between it
// (midpoints of two centres), outside it, and on the MBB edges of the trees'
// nodes (corners and the middles of their faces).
func knnProbePoints(rng *rand.Rand, items []Item, trees []*Tree, n int) []geom.Point {
	d := len(items[0].Rect.Lo)
	centre := func() geom.Point { return items[rng.Intn(len(items))].Rect.Center() }
	var ps []geom.Point
	for i := 0; i < n; i++ {
		a, b := centre(), centre()
		mid, out := make(geom.Point, d), make(geom.Point, d)
		for j := range mid {
			mid[j] = (a[j] + b[j]) / 2
			out[j] = -400 + rng.Float64()*1900
		}
		ps = append(ps, a, mid, out)
	}
	for _, tr := range trees {
		var mbbs []geom.Rect
		if err := tr.Walk(func(info NodeInfo) { mbbs = append(mbbs, info.MBB) }); err != nil {
			panic(err)
		}
		for i := 0; i < n && len(mbbs) > 0; i++ {
			m := mbbs[rng.Intn(len(mbbs))]
			corner, face := make(geom.Point, d), make(geom.Point, d)
			for j := range corner {
				corner[j], face[j] = m.Lo[j], (m.Lo[j]+m.Hi[j])/2
				if rng.Intn(2) == 1 {
					corner[j] = m.Hi[j]
				}
			}
			f := rng.Intn(d)
			face[f] = corner[f]
			ps = append(ps, corner, face)
		}
	}
	return ps
}

// checkKNNMatchesReference runs both searches for every probe and k over
// srcs and fails tb at the first difference in the answer, the tally or the
// error, or in what the buffer pools attached to the trees hold afterwards.
func checkKNNMatchesReference(tb testing.TB, label string, srcs []KNNSource, probes []geom.Point, ks []int) {
	tb.Helper()
	type outcome struct {
		nn       []Neighbor
		io       storage.Snapshot
		err      error
		resident [][]bool
	}
	run := func(search func(int, geom.Point, ...KNNSource) ([]Neighbor, storage.Snapshot, error), k int, p geom.Point) outcome {
		for _, s := range srcs {
			if pool := s.Version.tree.pool.Load(); pool != nil {
				pool.Reset()
			}
		}
		var o outcome
		o.nn, o.io, o.err = search(k, p, srcs...)
		for _, s := range srcs {
			var in []bool
			if pool := s.Version.tree.pool.Load(); pool != nil {
				for id := 0; id < s.Version.dir.n; id++ {
					in = append(in, pool.Contains(int32(id)))
				}
			}
			o.resident = append(o.resident, in)
		}
		return o
	}
	for i, p := range probes {
		for _, k := range ks {
			want, got := run(refNearestNeighbors, k, p), run(NearestNeighbors, k, p)
			if !reflect.DeepEqual(got, want) {
				tb.Fatalf("%s: probe %d %v, k=%d:\n got %+v\nwant %+v", label, i, p, k, got, want)
			}
			// The answer is the one allocation (race instrumentation makes
			// the scratch pool drop Puts).
			if i == 0 && !raceEnabled {
				if allocs := testing.AllocsPerRun(10, func() { NearestNeighbors(k, p, srcs...) }); allocs > 1 {
					tb.Fatalf("%s: k=%d: %.1f allocations per query, want at most 1", label, k, allocs)
				}
			}
		}
	}
}

// TestKNNMatchesReference holds the traversal to refNearestNeighbors: the
// same neighbours, every field, the same node reads, and the same nodes left
// in a small buffer pool (which the order of the last reads decides), in 1,
// 2, 3 and 8 dimensions, on clipped and unclipped trees, bulk-loaded and
// inserted, wide (page-derived fanout) and narrow (eight entries), as one
// tree and as four shards searched together, for probes inside, between,
// outside the data and on node MBB edges, with k from 1 to past the object
// count — and on a corpus with a degenerate dimension, one whose nodes lack
// planes, and one of integer points whose root grid has a cell edge on
// every coordinate.
func TestKNNMatchesReference(t *testing.T) {
	const n = 700
	ks := []int{1, 5, 33, n + 7}
	rng := rand.New(rand.NewSource(83))
	build := func(cfg Config, items []Item, shards int, bulk, clipped bool) ([]KNNSource, []*Tree) {
		var srcs []KNNSource
		var trees []*Tree
		for s := 0; s < shards; s++ {
			var part []Item
			for i, it := range items {
				if i%shards == s {
					part = append(part, it)
				}
			}
			tr := knnTree(t, cfg, part, bulk, clipped)
			tr.SetBufferPool(storage.NewBufferPoolBytes(6 << 10))
			srcs = append(srcs, KNNSource{Version: tr.CurrentVersion(), Clipped: clipped})
			trees = append(trees, tr)
		}
		return srcs, trees
	}
	for _, d := range []int{1, 2, 3, 8} {
		for _, flat := range []int{-1, d - 1} {
			if flat >= 0 && d == 1 {
				continue
			}
			items := knnCorpus(d, n, int64(17+d), flat)
			for _, wide := range []bool{false, true} {
				cfg := smallConfig(d, RStar)
				if wide {
					cfg = DefaultConfig(d, RRStar)
				}
				for _, shards := range []int{1, 4} {
					for _, clipped := range []bool{false, true} {
						label := fmt.Sprintf("d=%d/flat=%d/wide=%v/shards=%d/clipped=%v", d, flat, wide, shards, clipped)
						t.Run(label, func(t *testing.T) {
							srcs, trees := build(cfg, items, shards, wide, clipped)
							checkKNNMatchesReference(t, label, srcs, knnProbePoints(rng, items, trees, 12), ks)
						})
					}
				}
			}
		}
	}
	t.Run("without planes", func(t *testing.T) {
		items := knnCorpus(2, n, 29, -1)
		srcs, trees := build(smallConfig(2, Quadratic), items, 1, false, true)
		probes := knnProbePoints(rng, items, trees, 12)
		// Strip every third node of its filter layer, the root included.
		v := srcs[0].Version
		for id := 0; id < v.dir.n; id++ {
			if nd := v.dir.node(NodeID(id)); nd != nil && (id%3 == 0 || NodeID(id) == v.root) {
				nd.qplanes = nil
			}
		}
		checkKNNMatchesReference(t, "without planes", srcs, probes, ks)
	})
	t.Run("integer grid", func(t *testing.T) {
		// Far from the data the distances are large, and a ball that is not
		// padded can fall short of its radius by a few ulps of the
		// coordinates. The probes are points where it does: with k ending on
		// the first copy of a point whose other copy starts the next leaf,
		// that leaf, at exactly the k-th distance, is then not read.
		items := gridCorpus(2000, 31)
		for _, clipped := range []bool{false, true} {
			srcs, trees := build(DefaultConfig(1, Hilbert), items, 1, true, clipped)
			var los, his []float64
			if err := trees[0].Walk(func(info NodeInfo) {
				if info.Leaf {
					los, his = append(los, info.MBB.Lo[0]), append(his, info.MBB.Hi[0])
				}
			}); err != nil {
				t.Fatal(err)
			}
			edges := 0
			for _, x := range los {
				if !slices.Contains(his, x) {
					continue
				}
				edges++
				below, above := 0, 0
				for _, it := range items {
					if it.Rect.Lo[0] < x {
						below++
					} else if it.Rect.Lo[0] > x {
						above++
					}
				}
				var left, right []geom.Point
				for tries := 0; tries < 10000 && (len(left) < 3 || len(right) < 3); tries++ {
					l, r := -1-rng.Float64()*40000, 65536+rng.Float64()*40000
					if l+math.Sqrt((x-l)*(x-l)) < x && len(left) < 3 {
						left = append(left, geom.Point{l})
					}
					if r-math.Sqrt((r-x)*(r-x)) > x && len(right) < 3 {
						right = append(right, geom.Point{r})
					}
				}
				label := fmt.Sprintf("integer grid/clipped=%v/edge=%v", clipped, x)
				checkKNNMatchesReference(t, label, srcs, left, []int{below + 1, below + 2})
				checkKNNMatchesReference(t, label, srcs, right, []int{above + 1, above + 2})
			}
			if edges < 4 {
				t.Fatalf("only %d leaves start where another ends", edges)
			}
		}
	})
}

// FuzzKNNMatchesReference is TestKNNMatchesReference over a fuzzed point, k
// and corpus seed: 300 objects of knnCorpus in 1, 2, 3 or 8 dimensions,
// clipped or not, on one tree or four.
func FuzzKNNMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(10), 500.0, 500.0, 500.0)
	f.Add(int64(2), uint16(1), -300.0, 1200.0, 0.0)
	f.Add(int64(7), uint16(400), 12.5, 990.0, 500.0)
	f.Fuzz(func(t *testing.T, seed int64, k uint16, x, y, z float64) {
		d := []int{1, 2, 3, 8}[uint64(seed)%4]
		flat := -1
		if seed%3 == 0 {
			flat = d - 1
		}
		shards, clipped := 1+3*int(uint64(seed)>>2%2), uint64(seed)>>3%2 == 1
		items := knnCorpus(d, 300, seed, flat)
		p := make(geom.Point, d)
		for j := range p {
			p[j] = []float64{x, y, z}[j%3]
		}
		var srcs []KNNSource
		for s := 0; s < shards; s++ {
			var part []Item
			for i, it := range items {
				if i%shards == s {
					part = append(part, it)
				}
			}
			tr := knnTree(t, smallConfig(d, RRStar), part, seed%5 != 0, clipped)
			srcs = append(srcs, KNNSource{Version: tr.CurrentVersion(), Clipped: clipped})
		}
		checkKNNMatchesReference(t, "fuzz", srcs, []geom.Point{p}, []int{1 + int(k)%320})
	})
}
