// Package core implements clipped bounding boxes (CBBs), the primary
// contribution of Šidlauskas et al., "Improving Spatial Data Processing by
// Clipping Minimum Bounding Boxes" (ICDE 2018).
//
// A CBB augments a minimum bounding box (MBB) with a small, ordered set of
// clip points. Each clip point is a pair <coordinate, corner-bitmask>
// certifying that the rectangle spanned between the coordinate and the
// indicated MBB corner contains no object — it is dead space that a query
// can skip with a single extra dominance test.
//
// The package provides:
//
//   - ClipPoint and CBB value types (Definitions 2–3);
//   - Clip, the construction procedure (Algorithm 1), in the two variants of
//     the paper: MethodSkyline (CSKY, object-situated clip points of
//     Section III-B) and MethodStairline (CSTA, point-spliced clip points of
//     Section III-C);
//   - Intersects, the clipping-enabled intersection test (Algorithm 2) with
//     the query selector (2^d − 1) and insert selector (0) of Section IV-C/D;
//   - ValidAfterInsert, the eager insert-time validity check of
//     Section IV-D;
//   - dead-space accounting helpers used by the evaluation harness.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"cbb/internal/geom"
	"cbb/internal/skyline"
)

// Method selects how candidate clip points are generated.
type Method int

const (
	// MethodSkyline (CSKY) draws candidates from the corners of the bounded
	// children only: for each MBB corner b, the oriented skyline of the child
	// corners nearest to b (Section III-B).
	MethodSkyline Method = iota
	// MethodStairline (CSTA) additionally splices pairs of skyline points to
	// produce stairline candidates that clip strictly more dead space
	// (Section III-C).
	MethodStairline
)

// String implements fmt.Stringer using the paper's names.
func (m Method) String() string {
	switch m {
	case MethodSkyline:
		return "CSKY"
	case MethodStairline:
		return "CSTA"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ClipPoint is a single clip point <coord, mask> of an MBB (Definition 2).
// Score is the (approximate) volume of dead space the point clips away,
// used to order clip points so that the most effective one is tested first.
type ClipPoint struct {
	Coord geom.Point
	Mask  geom.Corner
	Score float64
}

// Clone returns an independent copy of the clip point.
func (c ClipPoint) Clone() ClipPoint {
	return ClipPoint{Coord: c.Coord.Clone(), Mask: c.Mask, Score: c.Score}
}

// Region returns the rectangle that the clip point removes from mbb: the MBB
// of {Coord, mbb^Mask}.
func (c ClipPoint) Region(mbb geom.Rect) geom.Rect {
	return mbb.CornerRect(c.Coord, c.Mask)
}

// String renders the clip point in the paper's <point, bitmask> notation.
func (c ClipPoint) String() string {
	return fmt.Sprintf("<%s, %s>", c.Coord, c.Mask.StringDims(c.Coord.Dims()))
}

// CBB is a clipped bounding box: an MBB plus its ordered clip points
// (Definition 3). Clips are sorted by descending Score so that the test most
// likely to prune a query executes first (Section IV-A).
type CBB struct {
	MBB   geom.Rect
	Clips []ClipPoint
}

// Clone returns a deep copy of the CBB.
func (c CBB) Clone() CBB {
	out := CBB{MBB: c.MBB.Clone()}
	if len(c.Clips) > 0 {
		out.Clips = make([]ClipPoint, len(c.Clips))
		for i, cp := range c.Clips {
			out.Clips[i] = cp.Clone()
		}
	}
	return out
}

// Params controls clip-point construction (Algorithm 1).
type Params struct {
	// K is the maximum number of clip points kept per node. The paper uses
	// k = 2^(d+1), i.e. up to two per corner.
	K int
	// Tau is the minimum fraction of the node volume a clip point must
	// (approximately) clip away to be stored; the paper uses 2.5%.
	Tau float64
	// Method selects skyline (CSKY) or stairline (CSTA) candidates.
	Method Method
}

// DefaultParams returns the configuration used throughout the paper's
// evaluation for dimensionality dims: k = 2^(dims+1), τ = 2.5%, stairline
// clipping.
func DefaultParams(dims int) Params {
	return Params{K: 1 << uint(dims+1), Tau: 0.025, Method: MethodStairline}
}

// Validate checks the parameters for plausibility.
func (p Params) Validate() error {
	if p.K < 0 {
		return errors.New("core: K must be non-negative")
	}
	if p.Tau < 0 || p.Tau >= 1 {
		return errors.New("core: Tau must be in [0, 1)")
	}
	if p.Method != MethodSkyline && p.Method != MethodStairline {
		return errors.New("core: unknown clipping method")
	}
	return nil
}

// Clip computes the clip points of the MBB mbb given the rectangles of its
// children (child MBBs for directory nodes, object MBBs for leaves), which
// must lie inside mbb. It is Algorithm 1 of the paper:
//
//	for each corner b:
//	    P ← oriented skyline of the children's b-corners
//	    if stairline: P ← P ∪ valid splices of pairs of P
//	    score all candidates (additive approximation of Figure 5)
//	    keep candidates with score > τ·Vol(mbb)
//	return the K highest-scoring candidates overall, ordered by score
//
// evaluated so that only work whose result can be stored is done. A skyline
// point is tested against the floor τ·Vol(mbb) at once; a pair of skyline
// points is validated first (the cheapest test), then spliced and floored,
// and only then compared with the candidates accepted so far; only candidates
// that cleared the floor are scored. The floor is exact, not a heuristic: a
// score is the candidate's volume minus what it shares with the corner's
// largest candidate, so score ≤ volume and a candidate at or under the floor
// would fail the threshold anyway; and the largest candidate, which every
// other score refers to, clears the floor whenever any candidate does, so the
// survivors' scores do not change. Validity and de-duplication are properties
// of the splice alone, so their order is free. Ties in score keep candidate
// order (corners ascending, then the order of skyline.Scratch.Candidates).
//
// A nil or empty children slice, a zero-volume MBB, or K == 0 yields no clip
// points. The children need not be clipped themselves; only their MBBs
// participate. Clip is a Clipper used once; callers that clip many nodes
// keep a Clipper.
func Clip(mbb geom.Rect, children []geom.Rect, p Params) []ClipPoint {
	var c Clipper
	return c.Clip(mbb, children, p)
}

// Clipper runs Clip with reusable scratch, so a node costs two allocations —
// the clip points and the one slab their coordinates share — and none when it
// gets no clip point. All scratch is sized by the node's fan-out and its
// candidates, never by K. The zero value is ready; a Clipper serves one
// goroutine.
type Clipper struct {
	sky     skyline.Scratch
	lo, nhi []float64 // the children's lower corners, and upper corners negated
	pts     []float64 // one MBB corner's view of them: lo or nhi per dimension
	origin  []float64 // that MBB corner, reflected like pts
	picks   []pick    // candidates of all corners that cleared the threshold
	coords  []float64 // their coordinates, still reflected
}

// pick is one scored candidate; off locates its coordinates in
// Clipper.coords.
type pick struct {
	score float64
	mask  geom.Corner
	off   int
}

// Clip is the package-level Clip on the receiver's scratch.
func (c *Clipper) Clip(mbb geom.Rect, children []geom.Rect, p Params) []ClipPoint {
	if len(children) == 0 || p.K == 0 || !mbb.Valid() {
		return nil
	}
	dims := mbb.Dims()
	nodeVol := mbb.Volume()
	if nodeVol <= 0 {
		// A degenerate (zero-volume) MBB has no dead space to clip.
		return nil
	}
	minScore := p.Tau * nodeVol

	// Corner b's nearest child corners, reflected so that b is the minimum
	// corner (Line 3), are the children's lower corners in the dimensions b
	// minimises and their negated upper corners in the others: both are laid
	// out once per node, and a corner is a strided copy per dimension.
	lo, nhi := slices.Grow(c.lo[:0], len(children)*dims), slices.Grow(c.nhi[:0], len(children)*dims)
	for _, ch := range children {
		lo = append(lo, ch.Lo...)
		for _, v := range ch.Hi {
			nhi = append(nhi, -v)
		}
	}
	c.lo, c.nhi = lo, nhi
	c.pts = slices.Grow(c.pts[:0], len(lo))[:len(lo)]
	c.origin = slices.Grow(c.origin[:0], dims)[:dims]
	pts, origin := c.pts, c.origin
	picks, coords := c.picks[:0], c.coords[:0]

	for b := geom.Corner(0); int(b) < geom.CornerCount(dims); b++ {
		for d := 0; d < dims; d++ {
			src := lo
			origin[d] = mbb.Lo[d]
			if b.Bit(d) {
				src = nhi
				origin[d] = -mbb.Hi[d]
			}
			for i := d; i < len(pts); i += dims {
				pts[i] = src[i]
			}
		}
		cand, vols := c.sky.Candidates(pts, dims, origin, minScore, p.Method == MethodStairline)

		// Figure 5's additive approximation: the candidate clipping the most
		// volume is assumed chosen and keeps its volume as score; every other
		// candidate is charged the volume it shares with that one, so the sum
		// approximates the union without inclusion–exclusion.
		best, bestVol := -1, -1.0
		for i, v := range vols {
			if v > bestVol {
				bestVol, best = v, i
			}
		}
		if best < 0 {
			continue
		}
		largest := cand[best*dims:][:dims]
		for i, score := range vols {
			q := cand[i*dims:][:dims]
			if i != best {
				// The conversion keeps the last multiplication of the overlap
				// from being fused into the subtraction where the target has
				// a fused multiply-add: stored scores are the same bits
				// everywhere.
				score -= float64(overlap(q, largest, origin))
			}
			if score > minScore {
				picks = append(picks, pick{score: score, mask: b, off: len(coords)})
				coords = append(coords, q...)
			}
		}
	}
	c.picks, c.coords = picks, coords

	// Line 12: keep the K highest-scoring clip points overall.
	slices.SortStableFunc(picks, func(a, b pick) int { return cmp.Compare(b.score, a.score) })
	if len(picks) > p.K {
		picks = picks[:p.K]
	}
	if len(picks) == 0 {
		return nil
	}
	out := make([]ClipPoint, len(picks))
	slab := make([]float64, len(picks)*dims)
	for i, pk := range picks {
		coord := slab[i*dims : (i+1)*dims : (i+1)*dims]
		skyline.Reflect(coord, coords[pk.off:pk.off+dims], pk.mask)
		out[i] = ClipPoint{Coord: coord, Mask: pk.mask, Score: pk.score}
	}
	return out
}

// overlap returns the volume two corner rectangles [origin, p] and
// [origin, q] share: the corner rectangle of their coordinate-wise minimum,
// zero when it is degenerate.
func overlap(p, q, origin []float64) float64 {
	v := 1.0
	for d, x := range p {
		if q[d] < x {
			x = q[d]
		}
		side := x - origin[d]
		if side <= 0 {
			return 0
		}
		v *= side
	}
	return v
}

// Selector chooses which corner of the probe rectangle Algorithm 2 compares
// against each clip point.
type Selector int

const (
	// SelectorQuery (2^d − 1 in the paper) picks the probe corner farthest
	// from the clipped MBB corner: if even that corner lies in the dead
	// region, the whole probe does, and the node can be skipped.
	SelectorQuery Selector = iota
	// SelectorInsert (0 in the paper) picks the probe corner nearest the
	// clipped MBB corner: if it lies strictly inside the dead region, part of
	// the inserted object does too and the clip point has become invalid.
	SelectorInsert
)

// Intersects is Algorithm 2: it reports whether the probe rectangle q may
// intersect live (non-dead) space of the clipped bounding box <mbb, clips>.
//
// With SelectorQuery it returns false when q is disjoint from mbb or when q's
// overlap with mbb lies entirely within the dead space certified by one clip
// point — the caller can then skip reading the node.
//
// With SelectorInsert it returns false when the rectangle of a newly inserted
// object reaches strictly into space certified dead by one clip point — the
// caller must then recompute the node's clip points (Section IV-D). Inserts
// propagate up from a chosen leaf, so q is assumed to intersect mbb.
//
// Dominance here is strict in every dimension, so a probe that merely touches
// the boundary of a dead region is never treated as inside it; clipped search
// therefore returns exactly the same results as unclipped search even for
// workloads with exact coordinate ties.
// Queries, joins and index maintenance evaluate the same test on flat
// records (Record.Dead); this is the definition that kernel is tested against.
func Intersects(mbb geom.Rect, clips []ClipPoint, q geom.Rect, sel Selector) bool {
	if !mbb.Intersects(q) {
		return false
	}
	switch sel {
	case SelectorQuery:
		return !QueryDead(clips, q)
	case SelectorInsert:
		return !insertDead(clips, q)
	default:
		// Unknown selector: be conservative and never prune.
		return true
	}
}

// QueryDead reports whether one of the clip points certifies the probe
// rectangle's overlap with the node as entirely dead space — the dominance
// half of Algorithm 2 with the query selector, for callers that have already
// established that q intersects the node's MBB. It performs no allocations.
//
// The probe corner of clip point <c, b> is q's corner farthest from the
// clipped MBB corner, i.e. q.Corner(b.Opposite): dimension i reads q.Lo[i]
// when bit i of b is set and q.Hi[i] otherwise. StrictlyDominates of that
// corner then unfolds to the comparisons below.
func QueryDead(clips []ClipPoint, q geom.Rect) bool {
	for i := range clips {
		c := &clips[i]
		dead := true
		for d := range c.Coord {
			if c.Mask.Bit(d) {
				if q.Lo[d] <= c.Coord[d] {
					dead = false
					break
				}
			} else {
				if q.Hi[d] >= c.Coord[d] {
					dead = false
					break
				}
			}
		}
		if dead {
			return true
		}
	}
	return false
}

// insertDead is the insert-selector counterpart of QueryDead: it reports
// whether the rectangle of a newly placed object reaches strictly into space
// certified dead by one clip point. The probe corner is q.Corner(b): q.Hi[i]
// when bit i is set, q.Lo[i] otherwise.
func insertDead(clips []ClipPoint, q geom.Rect) bool {
	for i := range clips {
		c := &clips[i]
		dead := true
		for d := range c.Coord {
			if c.Mask.Bit(d) {
				if q.Hi[d] <= c.Coord[d] {
					dead = false
					break
				}
			} else {
				if q.Lo[d] >= c.Coord[d] {
					dead = false
					break
				}
			}
		}
		if dead {
			return true
		}
	}
	return false
}

// ValidAfterInsert reports whether the clip points of a node remain valid
// after inserting an object with MBB obj into the node with MBB mbb
// (Section IV-D). It is the insert-selector variant of Algorithm 2: the
// clips remain valid exactly when no part of obj reaches strictly inside a
// clipped region.
func ValidAfterInsert(mbb geom.Rect, clips []ClipPoint, obj geom.Rect) bool {
	return Intersects(mbb, clips, obj, SelectorInsert)
}

// ClippedVolume returns the total volume clipped away by the given clip
// points, counting overlapping regions once (the exact union, evaluated by
// sweeping; used by the evaluation, not by the query path).
func ClippedVolume(mbb geom.Rect, clips []ClipPoint) float64 {
	if len(clips) == 0 {
		return 0
	}
	regions := make([]geom.Rect, len(clips))
	for i, c := range clips {
		regions[i] = c.Region(mbb)
	}
	return UnionVolume(regions)
}

// ApproxClippedVolume returns the additive score approximation of the total
// clipped volume (the quantity Algorithm 1 maximises); comparing it with
// ClippedVolume quantifies the approximation error of Figure 5.
func ApproxClippedVolume(clips []ClipPoint) float64 {
	var s float64
	for _, c := range clips {
		s += c.Score
	}
	return s
}

// CoversPoint reports whether the point lies in space that the clip points
// certify as dead (strictly inside some clipped region).
func CoversPoint(mbb geom.Rect, clips []ClipPoint, p geom.Point) bool {
	for _, c := range clips {
		if geom.StrictlyDominates(p, c.Coord, c.Mask) {
			return true
		}
	}
	return false
}

// UnionVolume computes the exact volume of the union of a set of rectangles
// using coordinate-grid decomposition. The number of rectangles per CBB is
// tiny (≤ 2^(d+1) in the paper's configuration), so the O((2n)^d) grid is
// perfectly affordable and exactness matters for the evaluation figures.
func UnionVolume(rects []geom.Rect) float64 {
	if len(rects) == 0 {
		return 0
	}
	dims := rects[0].Dims()
	// Collect the sorted distinct coordinates per dimension.
	grid := make([][]float64, dims)
	for d := 0; d < dims; d++ {
		coords := make([]float64, 0, 2*len(rects))
		for _, r := range rects {
			coords = append(coords, r.Lo[d], r.Hi[d])
		}
		sort.Float64s(coords)
		uniq := coords[:0]
		for i, v := range coords {
			if i == 0 || v != coords[i-1] {
				uniq = append(uniq, v)
			}
		}
		grid[d] = uniq
	}
	// Walk every grid cell and add its volume if its centre is covered.
	cell := make([]int, dims)
	var total float64
	var walk func(d int, vol float64, centre geom.Point)
	centre := make(geom.Point, dims)
	walk = func(d int, vol float64, centre geom.Point) {
		if d == dims {
			for _, r := range rects {
				if r.ContainsPoint(centre) {
					total += vol
					return
				}
			}
			return
		}
		for i := 0; i+1 < len(grid[d]); i++ {
			cell[d] = i
			w := grid[d][i+1] - grid[d][i]
			if w <= 0 {
				continue
			}
			centre[d] = (grid[d][i] + grid[d][i+1]) / 2
			walk(d+1, vol*w, centre)
		}
	}
	walk(0, 1, centre)
	return total
}
