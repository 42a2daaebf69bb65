package cbb

import (
	"errors"

	"cbb/internal/clipindex"
	"cbb/internal/fanout"
	"cbb/internal/storage"
)

// reader is the package's one read path: the epoch-consistent snapshots a
// query runs against — exactly one for a Tree or View, one per shard (in
// directory order) for a ShardedTree or ShardedView. Each snapshot pairs an
// immutable tree version with the clip points of the same commit; a tree
// without clipping is a snapshot whose clip table is empty, so there is no
// second, unclipped path. Every public query of the four types is written
// once, here: View and ShardedView embed the reader they took, Tree and
// ShardedTree build one over their last committed state per call.
//
// A reader is never empty. Every query tallies its node accesses and charges
// each snapshot's tree counter once (a sharded engine rewires every shard
// tree to one shared counter).
type reader []*clipindex.Snap

// Epochs returns the commit epoch of every snapshot the reader answers
// from: one element for a single tree, one per shard (in directory order)
// for a sharded engine. Epochs increase by one per committed batch.
func (r reader) Epochs() []uint64 {
	out := make([]uint64, len(r))
	for i, s := range r {
		out[i] = s.Version().Epoch()
	}
	return out
}

// Len returns the number of indexed objects.
func (r reader) Len() int {
	n := 0
	for _, s := range r {
		n += s.Version().Len()
	}
	return n
}

// Height returns the number of tree levels (0 when empty); for a sharded
// engine, of the tallest shard tree.
func (r reader) Height() int {
	h := 0
	for _, s := range r {
		h = max(h, s.Version().Height())
	}
	return h
}

// Bounds returns the MBB of all indexed objects (the zero Rect when empty).
func (r reader) Bounds() Rect {
	var out Rect
	for _, s := range r {
		switch b := s.Version().Bounds(); {
		case b.IsZero():
		case out.IsZero():
			out = b
		default:
			out = out.Union(b)
		}
	}
	return out
}

// Search calls visit for every object whose rectangle intersects q;
// traversal stops early when visit returns false. Child nodes whose overlap
// with q is entirely certified dead space are skipped, and a tree (or shard)
// whose root MBB or root clip points rule q out costs no I/O at all; the
// result set is always identical to an unclipped search. Across shards the
// order follows the shard directory (Hilbert order). An invalid query, or
// one whose dimensionality differs from the index's, matches nothing. A page
// it cannot read ends it, reported only through Tree.Err, as in SearchAll,
// Count and NearestNeighbors; BatchSearch and the joins return the fault.
//
// The rectangles handed to visit (and those in SearchAll and
// NearestNeighbors results) are views of immutable node storage: read-only,
// but safe to keep without Clone — no later mutation changes them.
func (r reader) Search(q Rect, visit func(ObjectID, Rect) bool) {
	_, _ = r.search(q, visit) // a fault is reported through Tree.Err
}

// search is Search returning the node accesses it charged and its fault.
func (r reader) search(q Rect, visit func(ObjectID, Rect) bool) (io storage.Snapshot, err error) {
	cont := true
	stoppable := func(id ObjectID, rect Rect) bool {
		cont = visit(id, rect)
		return cont
	}
	last := len(r) - 1
	for _, s := range r[:last] {
		sio, err := s.SearchCounted(q, nil, stoppable)
		if io = io.Add(sio); err != nil || !cont {
			return io, err
		}
	}
	sio, err := r[last].SearchCounted(q, nil, visit) // nothing to stop after the last one
	return io.Add(sio), err
}

// SearchAll returns every object intersecting q as a slice of items.
func (r reader) SearchAll(q Rect) []Item {
	var out []Item
	r.Search(q, func(id ObjectID, rect Rect) bool {
		out = append(out, Item{Object: id, Rect: rect})
		return true
	})
	return out
}

// Count returns the number of objects intersecting q.
func (r reader) Count(q Rect) int {
	n := 0
	r.Search(q, func(ObjectID, Rect) bool { n++; return true })
	return n
}

// NearestNeighbors returns the k objects closest to the point p (by minimum
// Euclidean distance to their rectangles), ordered by ascending distance and,
// at equal distance, by object id — the same answer however the index was
// built and however many shards it has. The search is best-first over one
// frontier for all shards, and clip points raise a node's distance bound (a
// point facing a certified-dead corner is farther from what is live in the
// node than from its MBB), so clipping saves node reads here as in Search.
// k < 1, a non-finite point, or one of another dimensionality gets nil.
func (r reader) NearestNeighbors(k int, p Point) []Neighbor {
	nn, _, _ := clipindex.NearestNeighbors(k, p, r...) // a fault is reported through Tree.Err
	return nn
}

// BatchSearch runs a batch of range queries on a pool of worker goroutines,
// handed out in chunks small enough to balance skewed query costs. Each
// query charges the index's counters as it ends, and BatchResult.IO is the
// sum of what the queries charged: exact, and the index's cumulative IOStats
// advance exactly as in a sequential run. It is safe to call concurrently
// with other queries. A node that cannot be read ends its worker's share of
// the batch, and the workers' errors come back joined, with no result.
func (r reader) BatchSearch(queries []Rect, opts BatchOptions) (BatchResult, error) {
	n := len(queries)
	res := BatchResult{Counts: make([]int, n), Workers: min(fanout.Workers(opts.Workers, n, 1), n)}
	if opts.Collect {
		res.Items = make([][]Item, n)
	}
	if n == 0 {
		return res, nil
	}
	tallies := make([]storage.Snapshot, res.Workers)
	errs := make([]error, res.Workers)
	fanout.ForEachChunk(n, res.Workers, max(1, n/(res.Workers*8)), func(w, start, end int) {
		io := tallies[w]
		for i := start; i < end && errs[w] == nil; i++ {
			var qio storage.Snapshot
			if opts.Collect {
				var items []Item
				qio, errs[w] = r.search(queries[i], func(id ObjectID, rect Rect) bool {
					items = append(items, Item{Object: id, Rect: rect})
					return true
				})
				res.Items[i], res.Counts[i] = items, len(items)
			} else {
				hits := 0
				qio, errs[w] = r.search(queries[i], func(ObjectID, Rect) bool { hits++; return true })
				res.Counts[i] = hits
			}
			io = io.Add(qio)
		}
		tallies[w] = io
	})
	if err := errors.Join(errs...); err != nil {
		return BatchResult{}, err
	}
	var io storage.Snapshot
	for _, t := range tallies {
		io = io.Add(t)
	}
	res.IO = toIOStats(io)
	return res, nil
}

// Stats returns structural statistics of the index and its clip table
// (Height is the maximum over shards, the counts are sums). It reads only
// published, immutable state, so it is safe at any time — including while
// writers commit — but walks every node; it is not cheap.
func (r reader) Stats() Stats {
	var out Stats
	clipped := 0
	for _, s := range r {
		ts := s.Version().Stats()
		nodes, points, tableBytes := s.ClipStats()
		out.Objects += ts.Objects
		out.Height = max(out.Height, ts.Height)
		out.LeafNodes += ts.LeafNodes
		out.DirNodes += ts.DirNodes
		out.PlaneBytes += ts.PlaneBytes
		out.ClipPoints += points
		out.ClipTableBytes += tableBytes
		clipped += nodes
	}
	if clipped > 0 {
		out.AvgClipPoints = float64(out.ClipPoints) / float64(clipped)
	}
	return out
}
