// Package join implements the two spatial-join strategies evaluated in the
// paper: the Index Nested Loop Join (INLJ), used when only one input is
// indexed, and the Synchronised Tree Traversal (STT) of Brinkhoff et al.,
// used when both inputs are indexed. Every input is a *clipindex.Snap — one
// epoch-consistent pairing of a tree version with the clip points of the
// same commit — so a whole join runs against one frozen state regardless of
// concurrent writers, and a child node is skipped when the probe rectangle
// (INLJ) or the partner subtree's MBB (STT) lies entirely in the child's
// clipped dead space. An unclipped input is simply a Snap with no clip
// points.
//
// Every node pair of the STT goes through one kernel, restrict then compare
// (the first CPU technique of Brinkhoff, Kriegel and Seeger, SIGMOD '93):
// each node's slots are cut down to those that may intersect the other
// node's MBB, on its quantised planes (rtree.NodeInfo.Restrict, the range
// search's scan kernel), and the exact tests run over survivor × survivor
// only, in ascending slot order. A slot the restriction drops intersects
// nothing in the other node, so admitted pairs, recursion order, emitted pair
// order and node reads are those of the nested loop over all slots of both.
//
// Both strategies fan out over a pool of goroutines. Every read tallies its
// node accesses in a plain value and charges its tree's counter once when it
// ends — a probe's range query in the INLJ, a whole traversal in the STT —
// and the reported I/O is the sum of the tallies: exact and, like the pair
// count, identical for every worker count.
package join

import (
	"errors"
	"math"
	"sync"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/fanout"
	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// Pair is one result of a spatial join: two object ids whose rectangles
// intersect.
type Pair struct {
	Left  rtree.ObjectID
	Right rtree.ObjectID
}

// Result summarises a join run.
type Result struct {
	// Pairs is the number of intersecting pairs found.
	Pairs int64
	// IO is the node-access delta incurred by the join (leaf and directory
	// reads across all participating trees).
	IO storage.Snapshot
}

// INLJ performs an index nested loop join: every probe rectangle is run as a
// range query against every side. The sides together form one logical index
// — a single tree is one side, a sharded engine contributes one side per
// shard — and because each object lives in exactly one side, the pair set is
// the union over sides, exact and duplicate-free. A side whose root MBB (or
// root clip points) rules the probe out costs no I/O.
//
// The probe set is partitioned over workers goroutines (<= 0 uses
// GOMAXPROCS, 1 runs sequentially); pair count and I/O are identical for
// every worker count. Each probe's range query charges its side's tree
// counter, so accumulated IOStats match a sequential run. When visit is
// non-nil it is serialised by a mutex but the pair order across probes is
// unspecified for workers > 1.
func INLJ(sides []*clipindex.Snap, probes []rtree.Item, workers int, visit func(Pair)) Result {
	workers = effectiveWorkers(workers, len(probes))
	if len(probes) == 0 || len(sides) == 0 {
		return Result{}
	}

	emit := serializedVisit(visit, workers)
	tallies := make([]Result, workers)
	forEachChunk(len(probes), workers, func(w, start, end int) {
		local := tallies[w]
		for i := start; i < end; i++ {
			probe := probes[i]
			for _, s := range sides {
				local.IO = local.IO.Add(s.SearchCounted(probe.Rect, nil, func(id rtree.ObjectID, _ geom.Rect) bool {
					local.Pairs++
					if emit != nil {
						emit(Pair{Left: id, Right: probe.Object})
					}
					return true
				}))
			}
		}
		tallies[w] = local
	})
	var res Result
	for _, r := range tallies {
		res.Pairs += r.Pairs
		res.IO = res.IO.Add(r.IO)
	}
	return res
}

// SidePair is one (left, right) input combination of an STT join.
type SidePair struct {
	Left, Right *clipindex.Snap
}

// STT performs a synchronised tree traversal join over a set of side pairs
// and sums the results: one pair joins two trees; the cross product of
// bounds-intersecting shards joins two sharded inputs (each object lives in
// exactly one shard per input, so each intersecting object pair appears in
// exactly one side pair). Before descending into a pair of subtrees the
// traversal applies the dominance tests of Algorithm 2 in both directions: a
// subtree pair is pruned when either side's overlap with the other's MBB
// lies entirely in clipped dead space.
//
// workers <= 0 uses GOMAXPROCS and 1 runs sequentially. With several pairs
// those whose bounds intersect are partitioned over the workers and each
// traversal runs sequentially; with one pair the roots are read once and the
// admissible pairs of root children are partitioned (a root that is a leaf
// is joined sequentially). Pair counts and total I/O are identical to the
// sequential join either way, and every traversal charges each side's tally
// to that side's tree counter. When visit is non-nil it is serialised by a
// mutex but the pair order is unspecified for workers > 1. A node that cannot
// be read ends the join with that error.
func STT(pairs []SidePair, workers int, visit func(Pair)) (Result, error) {
	for _, p := range pairs {
		if p.Left.Version().Dims() != p.Right.Version().Dims() {
			return Result{}, errors.New("join: dimensionality mismatch")
		}
	}
	workers = effectiveWorkers(workers, math.MaxInt) // <= 0: GOMAXPROCS
	if len(pairs) == 1 {
		return sttPair(pairs[0], workers, visit)
	}
	// Several pairs are the cross product of sharded inputs: like the shard
	// directory's routing of a range query, a pair whose trees' bounds are
	// disjoint (or one of which is empty) is skipped without reading a root.
	live := make([]SidePair, 0, len(pairs))
	for _, p := range pairs {
		lv, rv := p.Left.Version(), p.Right.Version()
		if lv.Len() > 0 && rv.Len() > 0 && lv.Bounds().Intersects(rv.Bounds()) {
			live = append(live, p)
		}
	}
	workers = effectiveWorkers(workers, len(live))
	emit := serializedVisit(visit, workers)
	results := make([]Result, len(live))
	errs := make([]error, len(live))
	forEachChunk(len(live), workers, func(_, start, end int) {
		for i := start; i < end; i++ {
			results[i], errs[i] = sttPair(live[i], 1, emit)
		}
	})
	var res Result
	for _, r := range results {
		res.Pairs += r.Pairs
		res.IO = res.IO.Add(r.IO)
	}
	return res, errors.Join(errs...)
}

// sttPair joins one pair of snapshots on up to workers goroutines.
func sttPair(p SidePair, workers int, visit func(Pair)) (Result, error) {
	lv, rv := p.Left.Version(), p.Right.Version()
	if lv.RootID() == rtree.InvalidNode || rv.RootID() == rtree.InvalidNode {
		return Result{}, nil
	}
	newJoiner := func(emit func(Pair)) *sttJoiner {
		return &sttJoiner{snap: [2]*clipindex.Snap{p.Left, p.Right}, visit: emit}
	}
	// The traversal reads both roots, then recurses into every admissible
	// pair of root children; with several workers the root joiner collects
	// exactly those pairs instead (none if a root is a leaf: it has joined
	// them itself) and they are partitioned.
	root := newJoiner(visit)
	root.collect = workers > 1
	root.joinNodes(lv.RootID(), rv.RootID())
	workers = effectiveWorkers(workers, len(root.tasks))
	emit := serializedVisit(visit, workers)
	joiners := make([]*sttJoiner, workers, workers+1)
	forEachChunk(len(root.tasks), workers, func(w, start, end int) {
		if joiners[w] == nil {
			joiners[w] = newJoiner(emit)
		}
		for _, t := range root.tasks[start:end] {
			joiners[w].joinNodes(t[0], t[1])
		}
	})
	// Charge each side's tally to its tree's counter.
	var res Result
	var err error
	var io [2]storage.Snapshot
	for _, j := range append(joiners, root) {
		if j == nil {
			continue
		}
		res.Pairs += j.pairs
		err = errors.Join(err, j.err)
		io[left], io[right] = io[left].Add(j.io[left]), io[right].Add(j.io[right])
	}
	lv.Tree().Counter().Add(io[left])
	rv.Tree().Counter().Add(io[right])
	res.IO = io[left].Add(io[right])
	return res, err
}

// effectiveWorkers resolves a requested worker count for n indices: <= 0
// means GOMAXPROCS, never more than n, so an empty range gets none.
func effectiveWorkers(workers, n int) int { return min(fanout.Workers(workers, n, 1), n) }

// forEachChunk fans [0, n) out over workers goroutines (effectiveWorkers for
// n) in grabs of an eighth of a worker's share, small enough to balance
// skewed per-index costs; an empty range starts nothing.
func forEachChunk(n, workers int, fn func(worker, start, end int)) {
	if n > 0 {
		fanout.ForEachChunk(n, workers, max(1, n/(workers*8)), fn)
	}
}

// serializedVisit wraps a join callback in a mutex when more than one worker
// will emit pairs, so user callbacks never run concurrently; a nil visit or
// a single worker passes through untouched.
func serializedVisit(visit func(Pair), workers int) func(Pair) {
	if visit == nil || workers <= 1 {
		return visit
	}
	var mu sync.Mutex
	return func(p Pair) {
		mu.Lock()
		visit(p)
		mu.Unlock()
	}
}

// The two inputs of a traversal, as indices into its per-side state.
const left, right = 0, 1

// sttJoiner is the state of one sequential traversal.
type sttJoiner struct {
	snap  [2]*clipindex.Snap  // the inputs, each one epoch-consistent snapshot
	io    [2]storage.Snapshot // each side's node accesses
	visit func(Pair)
	pairs int64
	err   error    // the first node-read failure; it ends the traversal
	sel   core.Sel // dead scratch: the probe laid out for Record.Dead
	mask  []uint64 // Restrict's scratch bitmask
	// idx is a stack of survivor lists, one frame per node pair on the
	// recursion path (a frame stays valid when a deeper one grows the
	// array); hits is one left slot's partners in joinLeaves.
	idx, hits []int
	// collect: list the admissible child pairs in tasks, do not descend.
	collect bool
	tasks   [][2]rtree.NodeID
}

// dead is the dominance half of Algorithm 2 on the flat clip record of a
// side's node: it reports whether the node's clip points certify its whole
// overlap with probe — which the caller has found to intersect the node's
// MBB — as dead space.
func (j *sttJoiner) dead(side int, id rtree.NodeID, probe geom.Rect) bool {
	rec := j.snap[side].Record(id)
	if len(rec) == 0 {
		return false
	}
	j.sel.Query(probe)
	return rec.Dead(probe.Dims(), &j.sel)
}

// admissible applies the clipped intersection test in both directions for a
// candidate pair of node MBBs: the pair survives only if neither side's
// clipped bounding box certifies the other's MBB as dead space.
func (j *sttJoiner) admissible(leftID rtree.NodeID, leftMBB geom.Rect, rightID rtree.NodeID, rightMBB geom.Rect) bool {
	return leftMBB.Intersects(rightMBB) && !j.dead(left, leftID, rightMBB) && !j.dead(right, rightID, leftMBB)
}

// read loads one node of a side and tallies the access in the side's io
// (and touches its buffer pool); false once a read of this traversal has
// failed.
func (j *sttJoiner) read(side int, id rtree.NodeID) (info rtree.NodeInfo, ok bool) {
	if j.err != nil {
		return info, false
	}
	v := j.snap[side].Version()
	if info, j.err = v.Node(id); j.err != nil {
		return info, false
	}
	rtree.ChargeNodeRead(v.Tree().BufferPool(), &info, &j.io[side])
	return info, true
}

// restrict pushes the slots of n that may intersect q as a new frame of idx;
// the caller pops what it pushed by truncating idx to its length on entry.
func (j *sttJoiner) restrict(n *rtree.NodeInfo, q geom.Rect) []int {
	mark := len(j.idx)
	j.idx = n.Restrict(q, &j.mask, j.idx)
	return j.idx[mark:]
}

func (j *sttJoiner) joinNodes(leftID, rightID rtree.NodeID) {
	l, lok := j.read(left, leftID)
	r, rok := j.read(right, rightID)
	if !lok || !rok {
		return
	}
	mark := len(j.idx)
	switch {
	case l.Leaf && r.Leaf:
		j.joinLeaves(&l, &r)
	case l.Leaf:
		// Descend only the right tree.
		for _, k := range j.restrict(&r, l.MBB) {
			if rc := r.Child(k); j.admissible(l.ID, l.MBB, rc, r.Rect(k)) {
				j.joinLeafWithNode(&l, right, rc)
			}
		}
	case r.Leaf:
		for _, i := range j.restrict(&l, r.MBB) {
			if lc := l.Child(i); j.admissible(lc, l.Rect(i), r.ID, r.MBB) {
				j.joinLeafWithNode(&r, left, lc)
			}
		}
	default:
		ls, rs := j.restrict(&l, r.MBB), j.restrict(&r, l.MBB)
		for _, i := range ls {
			lc, lr := l.Child(i), l.Rect(i)
			for _, k := range rs {
				switch rc := r.Child(k); {
				case !j.admissible(lc, lr, rc, r.Rect(k)):
				case j.collect:
					j.tasks = append(j.tasks, [2]rtree.NodeID{lc, rc})
				default:
					j.joinNodes(lc, rc)
				}
			}
		}
	}
	j.idx = j.idx[:mark]
}

// joinLeaves reports every intersecting pair of objects of two loaded leaves,
// left-major.
func (j *sttJoiner) joinLeaves(l, r *rtree.NodeInfo) {
	mark := len(j.idx)
	ls, rs := j.restrict(l, r.MBB), j.restrict(r, l.MBB)
	for _, i := range ls {
		j.hits = l.Intersecting(i, r, rs, j.hits)
		j.pairs += int64(len(j.hits))
		if j.visit != nil {
			for _, k := range j.hits {
				j.visit(Pair{Left: l.Object(i), Right: r.Object(k)})
			}
		}
	}
	j.idx = j.idx[:mark]
}

// joinLeafWithNode joins an already-loaded leaf of one input with a (possibly
// deeper) subtree of the other, the given side.
func (j *sttJoiner) joinLeafWithNode(leaf *rtree.NodeInfo, side int, id rtree.NodeID) {
	o, ok := j.read(side, id)
	switch {
	case !ok:
	case !o.Leaf:
		mark := len(j.idx)
		for _, k := range j.restrict(&o, leaf.MBB) {
			if child := o.Child(k); leaf.MBB.Intersects(o.Rect(k)) && !j.dead(side, child, leaf.MBB) {
				j.joinLeafWithNode(leaf, side, child)
			}
		}
		j.idx = j.idx[:mark]
	case side == right:
		j.joinLeaves(leaf, &o)
	default:
		j.joinLeaves(&o, leaf)
	}
}
