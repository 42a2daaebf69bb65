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
type knnEntry struct {
	key        float64
	id         int64 // NodeID or ObjectID
	from, slot int32
}

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
// rest[lo:hi] of the query's scratch are the node's children not yet on the
// frontier, when it was read before the search had a bound (admit).
type knnRead struct {
	boxes  []float64
	src    int
	lo, hi int32
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

	// worst is the k-th best distance seen, +Inf until k objects were.
	worst := math.Inf(1)
	for err == nil && len(front) > 0 && front[0].key <= worst {
		e := front[0]
		front = heapPop(front)
		from := read[e.from]
		if from.lo < from.hi {
			front, read[e.from].hi = admit(front, sc.rest, from.lo, from.hi, worst)
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
		read = append(read, knnRead{boxes: n.boxes, src: from.src})
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
			front, hi = admit(front, sc.rest, int32(lo), int32(len(sc.rest)), worst)
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
	searchScratchPool.Put(sc)
	return out, io, err
}

// admit moves children of a node read before the search had a bound from
// rest[lo:hi] onto the frontier: while there is still none, the (key, id)-least
// alone, the last child taking its place; otherwise all within worst. It
// returns the frontier and the new end of the node's waiting children.
func admit(front, rest []knnEntry, lo, hi int32, worst float64) ([]knnEntry, int32) {
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
