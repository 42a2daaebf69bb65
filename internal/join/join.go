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
// Both strategies fan out over a pool of goroutines: INLJ partitions the
// probe set; STT partitions the side pairs when there are several (sharded
// inputs) and the admissible pairs of root children when there is one. Every
// worker charges private storage.Counters, so the reported I/O is exact and —
// like the pair count — identical for every worker count.
package join

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/parallel"
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
// every worker count. The per-side I/O is folded back into each side's tree
// counter, so accumulated IOStats match a sequential run whether the sides
// share one counter (the sharded engine) or not. When visit is non-nil it is
// serialised by a mutex but the pair order across probes is unspecified for
// workers > 1.
func INLJ(sides []*clipindex.Snap, probes []rtree.Item, workers int, visit func(Pair)) Result {
	workers = parallel.EffectiveWorkers(workers, len(probes))
	if len(probes) == 0 || len(sides) == 0 {
		return Result{}
	}

	emit := serializedVisit(visit, workers)

	// One private counter per (worker, side) cell: every node access is
	// charged to exactly one cell, so the fold below is exact whether the
	// sides share one tree counter or use distinct ones.
	ctrs := make([][]storage.Counter, workers)
	for w := range ctrs {
		ctrs[w] = make([]storage.Counter, len(sides))
	}

	var pairs int64
	parallel.ForEachChunk(len(probes), workers, func(w, start, end int, _ *storage.Counter) {
		var local int64
		for i := start; i < end; i++ {
			probe := probes[i]
			for si, s := range sides {
				s.SearchCounted(probe.Rect, &ctrs[w][si], func(id rtree.ObjectID, _ geom.Rect) bool {
					local++
					if emit != nil {
						emit(Pair{Left: id, Right: probe.Object})
					}
					return true
				})
			}
		}
		atomic.AddInt64(&pairs, local)
	})

	res := Result{Pairs: pairs}
	for si, s := range sides {
		var io storage.Snapshot
		for w := range ctrs {
			io = io.Add(ctrs[w][si].Snapshot())
		}
		s.Version().Tree().Counter().Add(io)
		res.IO = res.IO.Add(io)
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
// falls back to the sequential traversal). Pair counts and total I/O are identical to
// the sequential join either way, and every traversal folds its I/O into its
// own trees' counters (counted once when both sides share one). When visit
// is non-nil it is serialised by a mutex but the pair order is unspecified
// for workers > 1.
func STT(pairs []SidePair, workers int, visit func(Pair)) (Result, error) {
	for _, p := range pairs {
		if p.Left.Version().Dims() != p.Right.Version().Dims() {
			return Result{}, errors.New("join: dimensionality mismatch")
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(pairs) == 1 {
		return sttPair(pairs[0], workers, visit), nil
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
	workers = parallel.EffectiveWorkers(workers, len(live))
	emit := serializedVisit(visit, workers)
	results := make([]Result, len(live))
	parallel.ForEachChunk(len(live), workers, func(_, start, end int, _ *storage.Counter) {
		for i := start; i < end; i++ {
			results[i] = sttPair(live[i], 1, emit)
		}
	})
	var res Result
	for _, r := range results {
		res.Pairs += r.Pairs
		res.IO = res.IO.Add(r.IO)
	}
	return res, nil
}

// sttPair joins one pair of snapshots on up to workers goroutines.
func sttPair(p SidePair, workers int, visit func(Pair)) Result {
	lv, rv := p.Left.Version(), p.Right.Version()
	if lv.RootID() == rtree.InvalidNode || rv.RootID() == rtree.InvalidNode {
		return Result{}
	}
	lctr, rctr := lv.Tree().Counter(), rv.Tree().Counter()
	shared := lctr == rctr
	// newJoiner builds a traversal state charging private counters; leftCtr
	// may be supplied (the per-worker counter of ForEachChunk) or nil for a
	// fresh one. With a shared tree counter one private counter receives
	// both sides so the I/O is counted once, as in the sequential join.
	newJoiner := func(emit func(Pair), leftCtr *storage.Counter) *sttJoiner {
		if leftCtr == nil {
			leftCtr = &storage.Counter{}
		}
		j := &sttJoiner{SidePair: p, visit: emit, leftCtr: leftCtr, rightCtr: leftCtr}
		if !shared {
			j.rightCtr = &storage.Counter{}
		}
		return j
	}
	// finalize folds the joiners' private counters back into the trees'
	// counters and sums the joint I/O (counted once when shared).
	finalize := func(joiners ...*sttJoiner) Result {
		var res Result
		var leftIO, rightIO storage.Snapshot
		for _, j := range joiners {
			res.Pairs += j.pairs
			leftIO = leftIO.Add(j.leftCtr.Snapshot())
			if !shared {
				rightIO = rightIO.Add(j.rightCtr.Snapshot())
			}
		}
		lctr.Add(leftIO)
		if !shared {
			rctr.Add(rightIO)
		}
		res.IO = leftIO.Add(rightIO)
		return res
	}

	linfo, lerr := lv.Node(lv.RootID())
	rinfo, rerr := rv.Node(rv.RootID())
	if workers <= 1 || lerr != nil || rerr != nil || linfo.Leaf || rinfo.Leaf {
		j := newJoiner(visit, nil)
		j.joinNodes(lv.RootID(), rv.RootID())
		return finalize(j)
	}

	// The sequential traversal reads both roots, then recurses into every
	// admissible pair of root children; partition exactly those pairs.
	root := newJoiner(nil, nil)
	charge(p.Left, linfo, root.leftCtr)
	charge(p.Right, rinfo, root.rightCtr)
	type task struct{ l, r rtree.NodeID }
	var tasks []task
	for i := 0; i < linfo.Len(); i++ {
		for k := 0; k < rinfo.Len(); k++ {
			if root.admissible(linfo.Child(i), linfo.Rect(i), rinfo.Child(k), rinfo.Rect(k)) {
				tasks = append(tasks, task{linfo.Child(i), rinfo.Child(k)})
			}
		}
	}
	workers = parallel.EffectiveWorkers(workers, len(tasks))
	if len(tasks) == 0 {
		return finalize(root)
	}

	emit := serializedVisit(visit, workers)
	joiners := make([]*sttJoiner, workers)
	parallel.ForEachChunk(len(tasks), workers, func(w, start, end int, c *storage.Counter) {
		j := joiners[w]
		if j == nil {
			j = newJoiner(emit, c)
			joiners[w] = j
		}
		for i := start; i < end; i++ {
			j.joinNodes(tasks[i].l, tasks[i].r)
		}
	})
	live := []*sttJoiner{root}
	for _, j := range joiners {
		if j != nil {
			live = append(live, j)
		}
	}
	return finalize(live...)
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

type sttJoiner struct {
	// Left and Right are the two inputs, each one epoch-consistent snapshot;
	// clip points are read through Snap.Record, the flat store.
	SidePair
	// leftCtr and rightCtr receive the node accesses of the respective tree;
	// they point at the same counter when the trees share one.
	leftCtr, rightCtr *storage.Counter
	visit             func(Pair)
	pairs             int64
	rects             []geom.Rect // joinLeaves scratch
	sel               core.Sel    // dead scratch: the probe laid out for Record.Dead
}

// admissible applies the clipped intersection test in both directions for a
// candidate pair of node MBBs: the pair survives only if neither side's
// clipped bounding box certifies the other's MBB as dead space.
func (j *sttJoiner) admissible(leftID rtree.NodeID, leftMBB geom.Rect, rightID rtree.NodeID, rightMBB geom.Rect) bool {
	return leftMBB.Intersects(rightMBB) && !j.dead(j.Left, leftID, rightMBB) && !j.dead(j.Right, rightID, leftMBB)
}

// dead is the dominance half of Algorithm 2 on the node's flat clip record:
// it reports whether the node's clip points certify its whole overlap with
// probe — which the caller has found to intersect the node's MBB — as dead
// space.
func (j *sttJoiner) dead(s *clipindex.Snap, id rtree.NodeID, probe geom.Rect) bool {
	rec := s.Record(id)
	if len(rec) == 0 {
		return false
	}
	j.sel.Query(probe)
	return rec.Dead(probe.Dims(), &j.sel)
}

func (j *sttJoiner) joinNodes(leftID, rightID rtree.NodeID) {
	linfo, err := j.Left.Version().Node(leftID)
	if err != nil {
		return
	}
	rinfo, err := j.Right.Version().Node(rightID)
	if err != nil {
		return
	}
	charge(j.Left, linfo, j.leftCtr)
	charge(j.Right, rinfo, j.rightCtr)

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

// joinLeaves reports every intersecting pair of objects of two loaded leaves,
// left-major.
func (j *sttJoiner) joinLeaves(left, right rtree.NodeInfo) {
	// The right leaf's rectangle views are built once, not once per left
	// slot: the inner loop below is the join's hottest code.
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

// joinLeafWithNode joins an already-loaded leaf with a (possibly deeper)
// subtree of the other side, charging that side's counter (passed
// explicitly: in a self-join both sides are the same snapshot).
func (j *sttJoiner) joinLeafWithNode(leaf rtree.NodeInfo, other *clipindex.Snap, ctr *storage.Counter, otherID rtree.NodeID) {
	oinfo, err := other.Version().Node(otherID)
	if err != nil {
		return
	}
	charge(other, oinfo, ctr)
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

// joinNodeWithLeaf mirrors joinLeafWithNode with the leaf on the right.
func (j *sttJoiner) joinNodeWithLeaf(other *clipindex.Snap, ctr *storage.Counter, otherID rtree.NodeID, leaf rtree.NodeInfo) {
	oinfo, err := other.Version().Node(otherID)
	if err != nil {
		return
	}
	charge(other, oinfo, ctr)
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

// charge records one node access of a side on the given private counter
// (and the side's buffer pool).
func charge(s *clipindex.Snap, info rtree.NodeInfo, ctr *storage.Counter) {
	s.Version().Tree().ChargeNodeRead(&info, ctr)
}
