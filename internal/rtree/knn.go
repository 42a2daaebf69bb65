package rtree

import (
	"math"
	"math/bits"

	"cbb/internal/geom"
)

// Neighbor is one result of a nearest-neighbour query: an object, its
// rectangle, and its squared distance to the query point.
type Neighbor struct {
	Object ObjectID
	Rect   geom.Rect
	DistSq float64
}

// KNNSource is one tree of a nearest-neighbour query: a version and the clip
// records of the same commit (nil: every bound is a box's plain MINDIST).
type KNNSource struct {
	Version *Version
	Clips   *ClipRecords
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
type knnRead struct {
	boxes []float64
	src   int
}

// NearestNeighbors is Version.NearestNeighbors on the last committed version.
func (t *Tree) NearestNeighbors(k int, p geom.Point) []Neighbor {
	return t.cur.Load().NearestNeighbors(k, p)
}

// NearestNeighbors is the package function over this one version, without
// clip records: the answer is exactly this version's epoch's, regardless of
// concurrent writer activity.
func (v *Version) NearestNeighbors(k int, p geom.Point) []Neighbor {
	return NearestNeighbors(k, p, KNNSource{Version: v})
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
// allocation sized by k.
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
// remove reads. Node accesses are charged to each tree's counter.
func NearestNeighbors(k int, p geom.Point, srcs ...KNNSource) []Neighbor {
	dims := len(p)
	if k <= 0 || dims > geom.MaxDims || !p.Valid() {
		return nil
	}
	sc := searchScratchPool.Get().(*searchScratch)
	front, best, read := sc.front[:0], sc.best[:0], sc.read[:0]
	for i, s := range srcs {
		v := s.Version
		if v.root == InvalidNode || v.tree.cfg.Dims != dims {
			continue
		}
		root := v.node(v.root)
		if root == nil {
			continue
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
	for len(front) > 0 && front[0].key <= worst {
		e := front[0]
		front = heapPop(front)
		from := read[e.from]
		v, clips := srcs[from.src].Version, srcs[from.src].Clips
		if clips != nil && len(from.boxes) > 0 {
			if rec := clips.Of(NodeID(e.id)); len(rec) > 0 {
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
		n := v.node(NodeID(e.id))
		if n == nil {
			continue // an unreadable page on a file-backed tree, recorded in Err
		}
		v.tree.chargeReadNode(n, nil)
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
			quantScan(n.qplanes, count, dims, &sc.qg, mask)
		} else { // nothing to filter by yet, or with: every slot survives
			for w := range mask {
				mask[w] = ^uint64(0) >> max(0, (w+1)<<6-count)
			}
		}
		here := int32(len(read))
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
					front = heapPush(front, o, false)
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
	}

	// Heap-sort the candidates in place into answer order and copy them out.
	var out []Neighbor
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
	// Drop the references into node storage: a pooled scratch pins nothing.
	clear(read)
	sc.front, sc.best, sc.read = front[:0], best[:0], read[:0]
	searchScratchPool.Put(sc)
	return out
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
