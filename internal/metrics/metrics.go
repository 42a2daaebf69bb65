// Package metrics computes the node-quality statistics used throughout the
// paper's evaluation: average overlap within a node (Figure 1a), average
// dead space per node (Figures 1b and 10), the fraction of dead space
// removed by clipping (Figure 10), and query I/O optimality (Figure 1c).
//
// Dead space and overlap are estimated per node with seeded Monte-Carlo
// sampling against the node's direct children (object rectangles for leaves,
// child MBBs for directory nodes), which is exactly the space a clipped
// bounding box of that node can address. The sample budget is configurable;
// the defaults keep whole-tree statistics under a second for the harness
// scales.
//
// This package is offline paper-evaluation instrumentation, not runtime
// observability: it walks a tree on demand and is priced accordingly
// (Monte-Carlo sampling per node). Serving-time metrics — request counters,
// in-flight gauges, latency histograms, the /metrics endpoint of cbbserve —
// live in cbb/internal/telemetry, which is always-on and lock-cheap.
package metrics

import (
	"math/rand"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
)

// DefaultSamplesPerNode is the Monte-Carlo budget per node used when the
// caller passes a non-positive sample count.
const DefaultSamplesPerNode = 512

// NodeStats aggregates per-node geometry statistics over a whole tree.
type NodeStats struct {
	// Nodes is the number of nodes measured.
	Nodes int
	// LeafNodes is how many of them are leaves.
	LeafNodes int
	// AvgOverlap is the average fraction of a node's volume covered by two
	// or more of its children (Figure 1a).
	AvgOverlap float64
	// AvgDeadSpace is the average fraction of a node's volume not covered by
	// any child (Figure 1b).
	AvgDeadSpace float64
	// AvgLeafDeadSpace restricts AvgDeadSpace to leaf nodes.
	AvgLeafDeadSpace float64
}

// TreeNodeStats measures overlap and dead space for every node of the tree.
func TreeNodeStats(t *rtree.Tree, samplesPerNode int, seed int64) NodeStats {
	if samplesPerNode <= 0 {
		samplesPerNode = DefaultSamplesPerNode
	}
	rng := rand.New(rand.NewSource(seed))
	var out NodeStats
	var sumOverlap, sumDead, sumLeafDead float64
	_ = t.Walk(func(info rtree.NodeInfo) { // callers pass in-memory trees: no fault
		if info.Len() == 0 || info.MBB.Volume() <= 0 {
			return
		}
		overlap, dead := nodeOverlapAndDeadSpace(info, samplesPerNode, rng)
		out.Nodes++
		sumOverlap += overlap
		sumDead += dead
		if info.Leaf {
			out.LeafNodes++
			sumLeafDead += dead
		}
	})
	if out.Nodes > 0 {
		out.AvgOverlap = sumOverlap / float64(out.Nodes)
		out.AvgDeadSpace = sumDead / float64(out.Nodes)
	}
	if out.LeafNodes > 0 {
		out.AvgLeafDeadSpace = sumLeafDead / float64(out.LeafNodes)
	}
	return out
}

// nodeOverlapAndDeadSpace estimates, for one node, the fraction of its
// volume covered by at least two children (overlap) and by no child (dead
// space).
func nodeOverlapAndDeadSpace(info rtree.NodeInfo, samples int, rng *rand.Rand) (overlap, dead float64) {
	dims := info.MBB.Dims()
	p := make(geom.Point, dims)
	overlapHits, deadHits := 0, 0
	for s := 0; s < samples; s++ {
		for d := 0; d < dims; d++ {
			p[d] = info.MBB.Lo[d] + rng.Float64()*(info.MBB.Hi[d]-info.MBB.Lo[d])
		}
		covering := 0
		for i := 0; i < info.Len(); i++ {
			if info.Rect(i).ContainsPoint(p) {
				covering++
				if covering >= 2 {
					break
				}
			}
		}
		switch {
		case covering == 0:
			deadHits++
		case covering >= 2:
			overlapHits++
		}
	}
	return float64(overlapHits) / float64(samples), float64(deadHits) / float64(samples)
}

// ClipStats aggregates how much of the dead space a clip table removes
// (Figure 10): total dead space, the clipped share, and the remaining share,
// all as fractions of node volume averaged over nodes.
type ClipStats struct {
	Nodes int
	// AvgDeadSpace is the average dead-space fraction per node.
	AvgDeadSpace float64
	// AvgClipped is the average fraction of node volume removed by clip
	// points.
	AvgClipped float64
	// AvgRemaining is AvgDeadSpace − AvgClipped (never negative).
	AvgRemaining float64
	// ClippedShareOfDead is AvgClipped / AvgDeadSpace (0 when there is no
	// dead space).
	ClippedShareOfDead float64
	// AvgClipPoints is the average number of stored clip points per node
	// (over nodes that have any).
	AvgClipPoints float64
}

// ClippedDeadSpace measures how much dead space the index's clip table
// removes, per node, averaged over all nodes.
func ClippedDeadSpace(idx *clipindex.Index, samplesPerNode int, seed int64) ClipStats {
	if samplesPerNode <= 0 {
		samplesPerNode = DefaultSamplesPerNode
	}
	rng := rand.New(rand.NewSource(seed))
	tree := idx.Tree()
	var out ClipStats
	var sumDead, sumClipped float64
	_ = tree.Walk(func(info rtree.NodeInfo) { // in memory, as above
		vol := info.MBB.Volume()
		if info.Len() == 0 || vol <= 0 {
			return
		}
		_, dead := nodeOverlapAndDeadSpace(info, samplesPerNode, rng)
		clipped := core.ClippedVolume(info.MBB, tree.Record(info.ID).Points(tree.Dims())) / vol
		out.Nodes++
		sumDead += dead
		sumClipped += clipped
	})
	if out.Nodes > 0 {
		out.AvgDeadSpace = sumDead / float64(out.Nodes)
		out.AvgClipped = sumClipped / float64(out.Nodes)
		out.AvgRemaining = out.AvgDeadSpace - out.AvgClipped
		if out.AvgRemaining < 0 {
			out.AvgRemaining = 0
		}
		if out.AvgDeadSpace > 0 {
			out.ClippedShareOfDead = out.AvgClipped / out.AvgDeadSpace
			if out.ClippedShareOfDead > 1 {
				out.ClippedShareOfDead = 1
			}
		}
	}
	nodes, points, _ := idx.Snap().ClipStats()
	out.AvgClipPoints = float64(points) / float64(max(nodes, 1))
	return out
}

// IOOptimality reports, for a batch of queries, which fraction of the
// accessed leaf nodes actually contributed at least one result (Figure 1c:
// optimal / actual leaf accesses).
type IOOptimality struct {
	Queries        int
	LeafAccesses   int64
	UsefulAccesses int64
}

// Ratio returns useful / total leaf accesses (1 when nothing was accessed).
func (o IOOptimality) Ratio() float64 {
	if o.LeafAccesses == 0 {
		return 1
	}
	return float64(o.UsefulAccesses) / float64(o.LeafAccesses)
}

// MeasureIOOptimality runs the queries against the tree's current version
// and compares the leaf accesses the searches return with the minimal number
// of leaf accesses needed (the number of leaves that contain at least one
// object intersecting the query).
func MeasureIOOptimality(t *rtree.Tree, queries []geom.Rect) IOOptimality {
	out := IOOptimality{Queries: len(queries)}
	v := t.CurrentVersion()
	for _, q := range queries {
		io, _ := v.SearchCounted(q, nil, func(rtree.ObjectID, geom.Rect) bool { return true }) // in memory, as above
		out.LeafAccesses += io.LeafReads
		// Count the leaves that actually contain a result (the optimal
		// number of leaf accesses for this query).
		useful := int64(0)
		_ = t.Walk(func(info rtree.NodeInfo) { // in memory, as above
			if !info.Leaf {
				return
			}
			for i := 0; i < info.Len(); i++ {
				if info.Rect(i).Intersects(q) {
					useful++
					return
				}
			}
		})
		out.UsefulAccesses += useful
	}
	return out
}
