package rtree

import (
	"math"
	"math/bits"

	"cbb/internal/geom"
	"cbb/internal/storage"
)

// Neighbor is one result of a nearest-neighbour query: an object, its
// rectangle, and its squared distance to the query point.
type Neighbor struct {
	Object ObjectID
	Rect   geom.Rect
	DistSq float64
}

// KNNSource is one tree of a nearest-neighbour query: a version, and whether
// its clip records lift the bounds above a box's plain MINDIST.
type KNNSource struct {
	Version *Version
	Clipped bool
}

// knnEntry is what both heaps of a nearest-neighbour query hold: a node not
// yet read, under the best lower bound known for the distance of anything in
// it, or an object under its distance. Its box is slot slot of read[from].
// A node queued again under its lifted bound has slot lifted instead: its box
// is not needed again. An entry with slot standIn holds the place on the
// frontier of the children of read[from] not keyed yet, under a key all of
// theirs exceed (see expand), and with an id that puts it after every real
// entry of its key.
type knnEntry struct {
	key        float64
	id         int64 // NodeID or ObjectID
	from, slot int32
}

// The slots of entries without a box.
const (
	standIn = -1
	lifted  = -2
)

// before is the order (key, id), reversed for a max-heap. On objects it is
// the answer order, (DistSq, ObjectID).
func (a *knnEntry) before(b *knnEntry, max bool) bool {
	if max {
		a, b = b, a
	}
	return a.key < b.key || a.key == b.key && a.id < b.id
}

// knnRead is the box array of a node that was read (for a root, its MBB
// alone) and the source it belongs to, kept so that an entry's box can be
// found again: a node's when it is popped, an object's when it is returned.
// A directory node also keeps what expand needs to key its children: the
// node, its bound (the key it was read under, the least a child can have),
// the ones not keyed yet (set in the scratch's pend words from pend on),
// whose distances all exceed r, and the step by which r grows next.
type knnRead struct {
	boxes []float64
	src   int
	n     *node
	bound float64
	r     float64
	step  float64
	pend  int32
}

// NearestNeighbors is the package function over this one version, without
// clip records: the answer is exactly this version's epoch's, regardless of
// concurrent writer activity.
func (v *Version) NearestNeighbors(k int, p geom.Point) ([]Neighbor, error) {
	nn, _, err := NearestNeighbors(k, p, KNNSource{Version: v})
	return nn, err
}

// NearestNeighbors returns the k objects of the sources (one tree, or the
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
// the k best seen so far, whose head — worst — is the pruning bound once it
// holds k: an entry beyond it is not pushed. Every node is read as a range
// query reads one: its quantised planes are scanned against a ball around p
// (the box of the ball, padded outward by an ulp per rounding step so float
// rounding never shrinks it, see project), and only the entries that survive
// get an exact distance. Once there is a bound, the ball's radius is worst's
// root. Before it, a directory node keys only its children within its own
// bound's ball and leaves the others pending behind a stand-in on the
// frontier, keyed by the ball's squared radius, which each of their
// distances exceeds (expand): when the stand-in is popped, or an entry is
// about to be read under a key beyond it, the ball grows and keys the next
// ring, and once there is a bound it keys all that are within it. A leaf read
// before the bound is scanned in a ball that grows until it holds k objects,
// so that nothing outside can be among the k best. Nothing is popped ahead of
// a nearer entry, so the frontier pops the same entries in the same (key, id)
// order as if every child had been keyed and pushed when its node was read,
// and a huge k costs O(log k) per candidate and never an allocation sized by
// k.
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
func NearestNeighbors(k int, p geom.Point, srcs ...KNNSource) (_ []Neighbor, io storage.Snapshot, err error) {
	dims := len(p)
	if k <= 0 || dims > geom.MaxDims || !p.Valid() {
		return nil, io, nil
	}
	sc := searchScratchPool.Get().(*searchScratch)
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
		read = append(read, knnRead{boxes: mbb, src: i})
		front = heapPush(front, e, false)
	}
	sc.sel.Query(geom.Rect{Lo: p, Hi: p})
	sc.ball, sc.pend = math.NaN(), sc.pend[:0]

	// worst is the k-th best distance seen, +Inf until k objects were.
	worst := math.Inf(1)
	for err == nil && len(front) > 0 && front[0].key <= worst {
		e := front[0]
		front = heapPop(front)
		if e.slot == standIn {
			// Nothing on the frontier is nearer than the stand-in's children
			// may be: key the next ring of them, out to the next entry's key
			// at most.
			rd := &read[e.from]
			r := rd.grow(dims)
			if len(front) > 0 && front[0].key > rd.r {
				r = min(r, front[0].key)
			}
			front = sc.expand(front, rd, e.from, r, worst, p)
			continue
		}
		from := read[e.from]
		v := srcs[from.src].Version
		if srcs[from.src].Clipped && len(from.boxes) > 0 && e.slot != lifted {
			if rec := v.dir.record(NodeID(e.id)); len(rec) > 0 {
				e.key = max(e.key, rec.MinDistSq(dims, &sc.sel, from.boxes[int(e.slot)*2*dims:][:2*dims]))
				if e.key > worst {
					continue
				}
				// A stand-in ahead of e may hide a child nearer than e's new
				// bound: key its children out to that bound first.
				for len(front) > 0 && front[0].slot == standIn && front[0].key < e.key {
					g := front[0].from
					front = heapPop(front)
					front = sc.expand(front, &read[g], g, e.key, worst, p)
				}
				if len(front) > 0 && e.key > front[0].key {
					// Popped again, it is read: nothing is nearer then.
					e.slot = lifted
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
		here := int32(len(read))
		read = append(read, knnRead{boxes: n.boxes, src: from.src})
		if !n.leaf {
			rd := &read[here]
			rd.n, rd.bound, rd.r, rd.pend = n, e.key, e.key, int32(len(sc.pend))
			for w := 0; w < count; w += 64 {
				sc.pend = append(sc.pend, ^uint64(0)>>max(0, w+64-count))
			}
			front = sc.expand(front, rd, here, e.key, worst, p)
			continue
		}
		// A leaf: scanned in the bound's ball when there is one, otherwise
		// in a ball that grows until the k best are certainly inside it.
		r, step, need, left := worst, 0.0, k-len(best), count
		done := sc.done.sized(count)
		clear(done)
		if r > math.MaxFloat64 && count > need && n.hasPlanes(dims) {
			step = ballStep(n, dims, need)
			r = sq(math.Sqrt(e.key) + step)
		}
		for {
			mask := sc.mask.sized(count)
			if r <= math.MaxFloat64 && n.hasPlanes(dims) {
				sc.project(r, p)
				quantiseQuery(n.qmbb, dims, sc.qlo[:], sc.qhi[:], &sc.qg)
				leafScan(n.qplanes, count, dims, &sc.qg, mask)
			} else {
				fillMask(mask, count)
			}
			for w, m := range mask {
				m &^= done[w]
				done[w] |= m
				left -= bits.OnesCount64(m)
				for ; m != 0; m &= m - 1 {
					i := w<<6 + bits.TrailingZeros64(m)
					d := minDistSq(p, n.boxes, i*2*dims, dims)
					switch o := (knnEntry{key: d, id: n.refs[i], from: here, slot: int32(i)}); {
					case d > worst:
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
			// Every entry outside the ball is farther than r, so none of
			// them can displace one of k objects within it.
			if worst <= r || left == 0 {
				break
			}
			r = grow(r, &step)
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
	sc.front, sc.best, sc.read, sc.io, sc.pools = front[:0], best[:0], read[:0], tally[:0], pools[:0]
	searchScratchPool.Put(sc)
	return out, io, err
}

// expand keys the pending children of directory node rd.n (read[g]) that
// lie within the ball of squared radius r around p — within worst's, once
// there is a bound — and pushes them onto the frontier under max(MINDIST,
// rd.bound) when that is within worst. Before the bound, the children still
// pending are farther than r: a stand-in keyed r then holds their place.
// Once there is a bound, the ones left are beyond it for good. A node
// without planes keys all its children at once.
func (sc *searchScratch) expand(front []knnEntry, rd *knnRead, g int32, r, worst float64, p geom.Point) []knnEntry {
	n, dims := rd.n, len(p)
	count := n.count()
	pend := sc.pend[rd.pend:][:(count+63)>>6]
	mask := sc.mask.sized(count)
	if worst <= math.MaxFloat64 {
		r = worst
	}
	if r <= math.MaxFloat64 && n.hasPlanes(dims) {
		sc.project(r, p)
		quantiseQuery(n.qmbb, dims, sc.qlo[:], sc.qhi[:], &sc.qg)
		quantScan(n.qplanes, count, dims, &sc.qg, mask)
	} else {
		fillMask(mask, count)
	}
	left := false
	for w, m := range mask {
		m &= pend[w]
		pend[w] &^= m
		left = left || pend[w] != 0
		for ; m != 0; m &= m - 1 {
			i := w<<6 + bits.TrailingZeros64(m)
			if d := minDistSq(p, n.boxes, i*2*dims, dims); d <= worst {
				front = heapPush(front, knnEntry{key: max(d, rd.bound), id: n.refs[i], from: g, slot: int32(i)}, false)
			}
		}
	}
	if left && worst > math.MaxFloat64 {
		rd.r = r
		front = heapPush(front, knnEntry{key: r, id: math.MaxInt64, from: g, slot: standIn}, false)
	}
	return front
}

// project sets the query extents to the box of the ball of squared radius r
// around p, unless they hold it already. Every entry that can still matter
// (exact distance d <= r) intersects the ball, hence its box; grid-testing
// that box against a node's planes (conservative, see quant.go) spares the
// entries it rules out the exact distance, and survivors get it and the
// identical test, so the filter changes nothing but time. The box is padded
// outward by one ulp per rounding step (sqrt and each endpoint sum) so float
// rounding can never shrink it below the true ball.
func (sc *searchScratch) project(r float64, p geom.Point) {
	if r == sc.ball {
		return
	}
	sc.ball = r
	rad := math.Nextafter(math.Sqrt(r), math.Inf(1))
	for d, x := range p {
		sc.qlo[d] = math.Nextafter(x-rad, math.Inf(-1))
		sc.qhi[d] = math.Nextafter(x+rad, math.Inf(1))
	}
}

// grow returns the squared radius of a directory's next ball: its radius
// grown by a step that doubles each time, from about the spacing of the
// node's children.
func (rd *knnRead) grow(dims int) float64 {
	if rd.step == 0 && rd.n.hasPlanes(dims) {
		rd.step = ballStep(rd.n, dims, 1)
	}
	return grow(rd.r, &rd.step)
}

// grow widens the ball of squared radius r by step, doubles step, and
// returns the new squared radius: +Inf when it would not grow.
func grow(r float64, step *float64) float64 {
	next := sq(math.Sqrt(r) + *step)
	*step *= 2
	if !(next > r) {
		return math.Inf(1)
	}
	return next
}

// ballStep is the radius of a ball that would hold need of n's entries were
// they spread evenly over its MBB (its mean extent, in every dimension),
// through the unit ball's measure in one to three dimensions (2, π, 4π/3);
// above three it is the side of a cube that would, a larger step. The step
// sets only how fast a ball grows, never what a search returns.
func ballStep(n *node, dims, need int) float64 {
	var ext float64
	for d := 0; d < dims; d++ {
		ext += n.qmbb[dims+d] - n.qmbb[d]
	}
	ext /= float64(dims)
	f := float64(need) / float64(n.count())
	switch dims {
	case 1:
		return ext * f / 2
	case 2:
		return ext * math.Sqrt(f/math.Pi)
	case 3:
		return ext * math.Cbrt(f*3/(4*math.Pi))
	}
	return ext * math.Pow(f, 1/float64(dims))
}

func sq(x float64) float64 { return x * x }

// fillMask sets the bits of count entries in mask.
func fillMask(mask []uint64, count int) {
	for w := range mask {
		mask[w] = ^uint64(0) >> max(0, (w+1)<<6-count)
	}
}

// minDistSq is Rect.MinDistSq for the box at boxes[off] (dims lower, then
// dims upper extents), bit for bit and without a branch: at most one of the
// two gaps of a dimension is positive, a negative one is replaced by zero,
// and adding a zero changes no sum.
func minDistSq(p geom.Point, boxes []float64, off, dims int) float64 {
	var s float64
	box := boxes[off:][:2*dims]
	for d, x := range p[:dims] {
		g := positive(box[d]-x) + positive(x-box[dims+d])
		s += g * g
	}
	return s
}

// positive returns x, or +0 when its sign bit is set.
func positive(x float64) float64 {
	b := math.Float64bits(x)
	return math.Float64frombits(b &^ uint64(int64(b)>>63))
}

// heapPush, heapPop and heapSift are container/heap specialised to
// []knnEntry, so entries are not boxed in interface values. heapPop drops
// the head of a min-heap, which the caller has read in place; heapSift
// overwrites the head of a non-empty heap with e and sifts it down.
func heapPush(h []knnEntry, e knnEntry, max bool) []knnEntry {
	h = append(h, e)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !e.before(&h[i], max) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = e
	return h
}

func heapPop(h []knnEntry) []knnEntry {
	last := len(h) - 1
	if last > 0 {
		heapSift(h[:last], h[last], false)
	}
	return h[:last]
}

func heapSift(h []knnEntry, e knnEntry, max bool) {
	i := 0
	for {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if j+1 < len(h) && h[j+1].before(&h[j], max) {
			j++
		}
		if !h[j].before(&e, max) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = e
}
