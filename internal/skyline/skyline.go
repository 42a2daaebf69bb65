// Package skyline computes oriented skylines and stairlines over point sets,
// the candidate-generation machinery behind both clipped-bounding-box
// variants of Šidlauskas et al. (ICDE 2018):
//
//   - The oriented skyline (Definition 5) of the child corner points with
//     respect to an MBB corner b is exactly the set of valid object-situated
//     clip points (CSKY).
//   - The oriented stairline (Definition 7) additionally splices pairs of
//     skyline points with mask ~b and keeps the splices that are themselves
//     valid clip points, producing strictly more aggressive clip points
//     (CSTA).
//
// Everything here runs on corner-normalised data: corner b's view of a point
// is reflected (Reflect: x' = −x in every dimension the corner maximises,
// exact and self-inverse, ±0 included) so that the corner becomes the
// minimum corner. "Closer to the corner" is then "smaller" in every
// dimension, a splice is a coordinate-wise max, and no kernel looks at the
// corner bitmask again. A node's points come in once (Load) as two slabs, the
// children's lower corners and their negated upper corners; a corner's view
// takes each dimension from one of the two.
//
// Scratch.Candidates is the pipeline, once per corner. For n points in d
// dimensions of which s survive into the skyline, with w = ⌈n/64⌉:
//
//  1. columns: each slab is sorted by each coordinate once per node,
//     O(d·n log n) — the negated upper corners in about O(n), from the lower
//     corners' order — and every coordinate gets its dense rank; the 2^(d−1)
//     corners that read a coordinate from a slab share its column;
//  2. skyline: the points are visited by dimension 0. In two dimensions a
//     point survives iff it has the least y of its run of equal x and that y
//     is below the last survivor's, O(n). Otherwise every point gets, from
//     bucket sets over the ranks, the set of points at most as far in every
//     other dimension, O(d·n·w), and survives iff none of them is in an
//     earlier run of dimension 0 and none of its own run is closer somewhere
//     or equal and before it;
//  3. floor: a skyline point or splice whose corner rectangle is no larger
//     than the caller's floor is dropped at once — the caller could never
//     store it;
//  4. splices: in two dimensions only neighbouring staircase points splice
//     validly, O(s). Otherwise the sets "which skyline points are strictly
//     closer than r in dimension d" come from bucket sets too, O(d·n), and
//     each of the s(s−1)/2 pairs is validated with d word operations per 64
//     skyline points — for s ≤ 64 in three dimensions one OR per dimension
//     ANDed together, in a loop that does nothing else. Only a valid pair is
//     spliced and floored, O(d), and compared with the splices accepted
//     before it, O(c) — in three dimensions only when ties leave a third
//     point at most as far as the splice everywhere, and then only with the
//     pairs such points make.
//
// That is O(d·n log n) per node plus O(d·n·w + s²·⌈s/64⌉·d) per corner. The
// generator this replaced spliced every pair, compared it with every
// candidate so far and only then validated it against the skyline —
// O(s²·(c+s)·d), quartic in s where most splices are valid, which is what
// "unfortunately cubic … still practically reasonable" had grown into for
// three-dimensional leaves.
package skyline

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"cbb/internal/geom"
)

// Reflect writes p into dst with the sign flipped in every dimension whose
// bit of b is set, which turns corner b of any rectangle around p into the
// minimum corner. It is its own inverse and exact (only sign bits change).
// dst and p may be the same slice.
func Reflect(dst, p []float64, b geom.Corner) {
	for d, v := range p {
		if b.Bit(d) {
			v = -v
		}
		dst[d] = v
	}
}

// Scratch holds the buffers of the candidate pipeline. The zero value is
// ready to use; one Scratch serves any number of nodes (of any
// dimensionality) from one goroutine and grows to the largest input seen.
type Scratch struct {
	dims    int
	lo, nhi []float64 // the node's points, as Load received them
	cols    []column  // lo's coordinate d at d, nhi's at dims+d
	keys    []uint64  // column's sort
	exact   []sortKey // the exact two-dimensional sweep's sort
	all     []int32   // 0, 1, …, n−1
	sets    []uint64  // byRank's buckets
	sky     []int32   // the skyline, as indices into the input
	skyPts  []float64 // the skyline's coordinates, packed for the pair loop
	closer  []uint64  // the pair loop's per-dimension, per-point bitsets
	notFar  []uint64  // the sets of points at most as far, point included
	others  []uint64  // skyline's notFar: in every dimension but 0
	othersB int       // 1 + b>>1 for the corner b others was built for, 0 if none
	splice  []float64 // the pair loop's current splice
	coords  []float64 // accepted candidates
	vols    []float64 // their corner-rectangle volumes
}

// A column is one slab's coordinate d of the loaded node's points, built at
// its first use after Load and shared by the corners that read it.
type column struct {
	order  []int32  // the points, sorted by the coordinate
	ranks  []int32  // each point's dense rank in order; equal coordinates share one
	far    []uint64 // per point, ⌈n/64⌉ words: the points at most as far
	sorted bool
	hasFar bool
}

// sortKey is a point's place in a sort: the coordinate sorted by and the
// point's index.
type sortKey struct {
	x float64
	i int32
}

// Load hands the next Candidates calls a node's points: lo and nhi hold, point
// after point, the lower corners of the node's children and their upper
// corners negated. Both are read, not copied, until the next Load.
func (s *Scratch) Load(lo, nhi []float64, dims int) {
	s.lo, s.nhi, s.dims, s.othersB = lo, nhi, dims, 0
	for len(s.cols) < 2*dims {
		s.cols = append(s.cols, column{})
	}
	for k := range s.cols {
		s.cols[k].sorted, s.cols[k].hasFar = false, false
	}
}

// Candidates returns the clip-point candidates of the loaded node for corner
// b — as packed coordinates in b's view plus the volume of each candidate's
// corner rectangle [origin, candidate]: the skyline points and, with splice
// set, the valid splices of skyline pairs (Line 6 of Algorithm 1), in both
// cases only those whose volume exceeds floor. Corner b's view of a point
// takes dimension d from nhi where b has bit d set and from lo elsewhere;
// origin, in the same view, must bound the points from below in every
// dimension (it is the reflected MBB corner). Both results alias the Scratch
// and are valid until its next call.
//
// The order is part of the contract, because callers break score ties by it:
// skyline points first, in input order — except in two dimensions, where they
// come in staircase order, dimension 0 ascending — then splices in the order
// (i, j), i < j, of the skyline pairs that produced them. Points that compare
// equal are represented by the first of them in input order (in two
// dimensions: by whichever slices.SortFunc puts first among the points in
// input order, which only matters to the sign of a zero).
func (s *Scratch) Candidates(b geom.Corner, origin []float64, floor float64, splice bool) (coords, vols []float64) {
	dims, slab := s.dims, [2][]float64{s.lo, s.nhi} // b's view of point i in d: slab[b>>d&1][i*dims+d]
	if dims == 2 {
		if !s.skyline2(s.column(b, 0).order, slab[b&1], slab[b>>1&1]) {
			s.skyline2Exact(slab[b&1], slab[b>>1&1])
		}
	} else {
		s.skyline(b)
	}
	sky := slices.Grow(s.skyPts[:0], len(s.sky)*dims)[:len(s.sky)*dims]
	for d := 0; d < dims; d++ {
		src := slab[b>>d&1][d:]
		for r, i := range s.sky {
			sky[r*dims+d] = src[int(i)*dims]
		}
	}
	s.skyPts, s.coords, s.vols = sky, s.coords[:0], s.vols[:0]
	for at := 0; at < len(sky); at += dims {
		p := sky[at : at+dims]
		if v := volume(p, origin); !(v <= floor) {
			s.accept(p, v)
		}
	}
	if splice {
		switch n := len(s.sky); {
		case dims == 2:
			s.stairline2(origin, floor)
		case dims == 3 && n <= 64:
			s.splices3(b, origin, floor)
		default:
			s.splices(b, origin, floor)
		}
	}
	return s.coords, s.vols
}

func (s *Scratch) accept(p []float64, v float64) {
	s.coords = append(s.coords, p...)
	s.vols = append(s.vols, v)
}

// column returns corner b's view of coordinate d, sorting it once per Load.
//
// The sort of lo's column is one slices.Sort of integers: each coordinate's
// order-preserving image (key) with the low bits replaced by the point's
// index, which orders the points except among coordinates that differ only
// in those bits; an insertion sort puts those right. The upper corners of a
// node's children mostly sort like their lower corners, so nhi's column
// starts from lo's order reversed and the insertion sort alone finishes it,
// unless that takes more than 8n moves.
func (s *Scratch) column(b geom.Corner, d int) *column {
	k, src, dims := d, s.lo, s.dims
	if b.Bit(d) {
		k, src = dims+d, s.nhi
	}
	c := &s.cols[k]
	if c.sorted {
		return c
	}
	n := len(src) / dims
	order := slices.Grow(c.order[:0], n)[:n]
	sorted := false
	if lo := &s.cols[d]; k > d && lo.sorted {
		for r := range order {
			order[r] = lo.order[n-1-r]
		}
		sorted = insertionSort(order, src[d:], dims, 8*n)
	}
	if !sorted {
		low := uint64(1)<<bits.Len(uint(n)) - 1
		keys := slices.Grow(s.keys[:0], n)
		for i := 0; i < n; i++ {
			keys = append(keys, key(src[i*dims+d])&^low|uint64(i))
		}
		slices.Sort(keys)
		for r, kv := range keys {
			order[r] = int32(kv & low)
		}
		insertionSort(order, src[d:], dims, n*n)
		s.keys = keys
	}
	ranks := slices.Grow(c.ranks[:0], n)[:n]
	r := int32(-1)
	for at, i := range order {
		if at == 0 || src[int(i)*dims+d] != src[int(order[at-1])*dims+d] {
			r++
		}
		ranks[i] = r
	}
	c.order, c.ranks, c.sorted = order, ranks, true
	return c
}

// insertionSort sorts order by the coordinates col[i*stride] and reports
// whether it did so within the given number of moves.
func insertionSort(order []int32, col []float64, stride, moves int) bool {
	for r := 1; r < len(order); r++ {
		i, at := order[r], r
		for ; at > 0 && key(col[int(order[at-1])*stride]) > key(col[int(i)*stride]); at-- {
			order[at] = order[at-1]
		}
		order[at] = i
		if moves -= r - at; moves < 0 {
			return false
		}
	}
	return true
}

// key maps x to an unsigned integer of the same order, ±0 to the same one.
func key(x float64) uint64 {
	u := math.Float64bits(x + 0) // −0 + 0 is +0
	if u>>63 != 0 {
		return ^u
	}
	return u | 1<<63
}

// byRank returns, for the members of a point set (indices into the node) and
// one column's ranks, len(ranks)+1 bucket sets of words words each, valid
// until its next call: set k holds the members of rank < k, bit m standing
// for members[m]. So a member of rank r has the members strictly closer than
// it in set r and those at most as far in set r+1.
func (s *Scratch) byRank(members, ranks []int32, words int) []uint64 {
	dst := slices.Grow(s.sets[:0], (len(ranks)+1)*words)[:(len(ranks)+1)*words]
	clear(dst)
	for m, i := range members {
		dst[int(ranks[i]+1)*words+m>>6] |= 1 << (m & 63)
	}
	for w := 0; w < words; w++ {
		var acc uint64
		for k := w; k < len(dst); k += words {
			acc |= dst[k]
			dst[k] = acc
		}
	}
	s.sets = dst
	return dst
}

// farSets returns the column's far sets, building them once per Load.
func (s *Scratch) farSets(c *column) []uint64 {
	if c.hasFar {
		return c.far
	}
	n := len(c.ranks)
	words := (n + 63) / 64
	for len(s.all) < n {
		s.all = append(s.all, int32(len(s.all)))
	}
	sets := s.byRank(s.all[:n], c.ranks, words)
	far := slices.Grow(c.far[:0], n*words)[:n*words]
	for i, r := range c.ranks {
		for w := range words {
			far[i*words+w] = sets[int(r+1)*words+w]
		}
	}
	c.far, c.hasFar = far, true
	return far
}

// skyline leaves in s.sky, in input order, the points not dominated by any
// other (Definition 5) in corner b's view, in any dimensionality but two. It
// visits the points by dimension 0, one run of equal coordinates at a time:
// a point of an earlier run that is at most as far in every other dimension
// dominates it; one of its own run does if it is closer in some dimension, or
// equal and before it.
func (s *Scratch) skyline(b geom.Corner) {
	dims, n := s.dims, len(s.lo)/s.dims
	words := (n + 63) / 64
	// notFar: the points at most as far in every dimension but 0, the same
	// for the two corners that differ only there.
	notFar := slices.Grow(s.others[:0], n*words+2*words)[:n*words+2*words]
	var ranks [geom.MaxDims][]int32
	for d := 1; d < dims; d++ {
		ranks[d] = s.column(b, d).ranks
	}
	if s.othersB != int(b>>1)+1 {
		for i := range notFar {
			notFar[i] = ^uint64(0)
		}
		for d := 1; d < dims; d++ {
			for i, f := range s.farSets(s.column(b, d)) {
				notFar[i] &= f
			}
		}
		s.othersB = int(b>>1) + 1
	}
	c0 := s.column(b, 0)
	order, r0 := c0.order, c0.ranks
	earlier, keep := notFar[n*words:][:words], notFar[n*words+words:][:words]
	clear(earlier)
	clear(keep)
	for at := 0; at < n; {
		end := at + 1
		for end < n && r0[order[end]] == r0[order[at]] {
			end++
		}
		run := order[at:end]
		if len(run) == 1 { // the common case: nothing to compare within the run
			i := run[0]
			beaten := uint64(0)
			for w, m := range notFar[int(i)*words:][:words] {
				beaten |= m & earlier[w]
			}
			if beaten == 0 {
				keep[i>>6] |= 1 << (i & 63)
			}
			earlier[i>>6] |= 1 << (i & 63)
			at = end
			continue
		}
		for _, i := range run {
			nf, beaten := notFar[int(i)*words:][:words], uint64(0)
			for w, m := range nf {
				beaten |= m & earlier[w]
			}
			for _, j := range run {
				if beaten == 0 && j != i && nf[j>>6]>>(j&63)&1 != 0 {
					beaten = 1 // unless j is equal to i and after it
					if j > i {
						beaten = 0
						for d := 1; d < dims; d++ {
							beaten |= uint64(ranks[d][i] - ranks[d][j])
						}
					}
				}
			}
			if beaten == 0 {
				keep[i>>6] |= 1 << (i & 63)
			}
		}
		for _, i := range run {
			earlier[i>>6] |= 1 << (i & 63)
		}
		at = end
	}
	s.others = notFar
	sky := s.sky[:0]
	for w, m := range keep {
		for ; m != 0; m &= m - 1 {
			sky = append(sky, int32(64*w+bits.TrailingZeros64(m)))
		}
	}
	s.sky = sky
}

// skyline2 is the two-dimensional sweep over order, sorted by dimension 0:
// of each run of equal x only a point of least y can survive, and it does iff
// its y is below the last survivor's. It leaves the staircase in s.sky,
// dimension 0 ascending, and reports true — unless a surviving run's least y
// is held by points that compare equal but differ in the sign of a zero;
// which of those represents them is what the exact fallback's sort decides.
func (s *Scratch) skyline2(order []int32, xs, ys []float64) bool {
	sky := s.sky[:0]
	for at := 0; at < len(order); {
		best := order[at]
		x, by, mixed := xs[2*best], ys[2*best+1], false
		end := at + 1
		for ; end < len(order) && xs[2*order[end]] == x; end++ {
			i := order[end]
			switch y := ys[2*i+1]; {
			case y < by:
				best, by, mixed = i, y, false
			case y == by && (math.Float64bits(xs[2*i]) != math.Float64bits(xs[2*best]) ||
				math.Float64bits(y) != math.Float64bits(by)):
				mixed = true
			}
		}
		at = end
		if len(sky) == 0 || by < ys[2*sky[len(sky)-1]+1] {
			if mixed {
				return false
			}
			sky = append(sky, best)
		}
	}
	s.sky = sky
	return true
}

// skyline2Exact is skyline2 for the case it declines: the points, in input
// order, sorted by (x, y) with slices.SortFunc, so that of the points that
// compare equal the one the contract names comes first and is kept.
func (s *Scratch) skyline2Exact(xs, ys []float64) {
	n := len(xs) / 2
	order := slices.Grow(s.exact[:0], n)
	for i := 0; i < n; i++ {
		order = append(order, sortKey{xs[2*i], int32(i)})
	}
	slices.SortFunc(order, func(a, b sortKey) int {
		if a.x != b.x {
			return cmp.Compare(a.x, b.x)
		}
		return cmp.Compare(ys[2*a.i+1], ys[2*b.i+1])
	})
	s.exact = order
	sky := s.sky[:0]
	// One dimension left: the survivors' best is the last survivor's.
	for _, k := range order {
		if len(sky) == 0 || ys[2*int(k.i)+1] < ys[2*int(sky[len(sky)-1])+1] {
			sky = append(sky, k.i)
		}
	}
	s.sky = sky
}

// volume returns the volume of the corner rectangle [origin, p], multiplied
// in dimension order (the scores stored in clip tables depend on it).
func volume(p, origin []float64) float64 {
	v := 1.0
	for d, x := range p {
		v *= x - origin[d]
	}
	return v
}

// stairline2 is the pair loop of splices for two dimensions, where it is
// linear. The staircase in s.skyPts has x strictly ascending and y strictly
// descending, so the splice of points i < j is (x_j, y_i), and point i+1 is
// strictly closer than it in both dimensions unless j = i+1; and a
// neighbouring splice is valid, for the points closer than x_{i+1} in x are
// those up to i, none of them closer than y_i in y. The splices are pairwise
// different and different from every skyline point, so none is a duplicate.
func (s *Scratch) stairline2(origin []float64, floor float64) {
	sky := s.skyPts
	for k := 2; k < len(sky); k += 2 {
		x, y := sky[k], sky[k-1]
		if v := (x - origin[0]) * (y - origin[1]); !(v <= floor) {
			s.coords = append(s.coords, x, y)
			s.vols = append(s.vols, v)
		}
	}
}

// splices runs the one pair loop over the skyline in s.skyPts (Definition 7).
// The splice of p and q takes the coordinate farther from the corner in every
// dimension, p's on a tie (the sign of a zero is p's). Each pair is asked, in
// order of cost, and each question only of what the previous let through:
//
// Valid? A splice is valid iff no skyline point is strictly closer to the
// corner in every dimension — such a point is the corner of a child the
// splice's rectangle would cut into; boundary contact (the spliced point c of
// the paper's Figure 2 touches o1 and o4) does not invalidate it. Closer than
// the splice in a dimension means closer than p or closer than q there, so
// with the sets "strictly closer than r in dimension d" laid out once as
// bitsets over the skyline (closerSets), a pair is an OR and an AND of words
// per dimension.
//
// Above the floor? Computed only now, with the splice itself.
//
// New? (fresh) A splice is never equal to a skyline point: it is at least as
// far as p and as q in every dimension, so one equal to r would have p and q
// at most as far as r, and r would not be in the skyline.
func (s *Scratch) splices(b geom.Corner, origin []float64, floor float64) {
	dims, sky := s.dims, s.skyPts
	n := len(sky) / dims
	words := s.closerSets(b)
	closer, stride := s.closer, n*words // point r's set in d at d*stride + r*words
	s.splice = slices.Grow(s.splice[:0], dims)[:dims]
	first := len(s.vols)
	for i := 0; i < n-1; i++ {
	pairs:
		for j := i + 1; j < n; j++ {
			for w := 0; w < words; w++ {
				invalidating := ^uint64(0)
				for at := w; at < len(closer); at += stride { // once per dimension
					invalidating &= closer[at+i*words] | closer[at+j*words]
				}
				if invalidating != 0 {
					continue pairs
				}
			}
			s.splicePair(sky[i*dims:][:dims], sky[j*dims:][:dims], origin, floor, first)
		}
	}
}

// splicePair splices p and q and accepts the splice if it is above the floor
// and new.
func (s *Scratch) splicePair(p, q, origin []float64, floor float64, first int) {
	sp, v := s.splice, 1.0
	for d, x := range p {
		if q[d] > x {
			x = q[d]
		}
		sp[d] = x
		v *= x - origin[d]
	}
	if !(v <= floor) && s.fresh(sp, v, first) {
		s.accept(sp, v)
	}
}

// fresh reports whether no candidate accepted since index first — the
// splices, as no splice equals a skyline point — has the bit patterns of sp
// (±0 are distinct). A duplicate has the same volume, so coordinates are only
// compared when the volumes agree.
func (s *Scratch) fresh(sp []float64, v float64, first int) bool {
	dims := len(sp)
	for k := first; k < len(s.vols); k++ {
		if s.vols[k] == v && sameBits(s.coords[k*dims:][:dims], sp) {
			return false
		}
	}
	return true
}

// closerSets lays out in s.closer, for every skyline point r and dimension d
// of corner b's view, the set of skyline points strictly closer to the
// corner than r in d, as a bitset of ⌈s/64⌉ words at (d*s + r)*words, bit q
// of word w standing for point 64w+q, and beside them in s.notFar the sets
// of points at most as far, r included. It returns the words per set.
func (s *Scratch) closerSets(b geom.Corner) int {
	n, dims := len(s.sky), s.dims
	words := (n + 63) / 64
	size := dims * n * words
	s.closer = slices.Grow(s.closer[:0], size)[:size]
	s.notFar = slices.Grow(s.notFar[:0], size)[:size]
	for d := 0; d < dims; d++ {
		ranks := s.column(b, d).ranks
		sets := s.byRank(s.sky, ranks, words)
		closer, notFar := s.closer[d*n*words:][:n*words], s.notFar[d*n*words:][:n*words]
		for r, i := range s.sky {
			from := sets[int(ranks[i])*words:][:2*words]
			for w := range words {
				closer[r*words+w], notFar[r*words+w] = from[w], from[words+w]
			}
		}
	}
	return words
}

// first3 reports whether no pair (k, l) before (i, j) has a splice with the
// bit patterns of sp, the splice of (i, j). Such a pair draws every
// coordinate from k or l, so both are in pool, the points at most as far as
// sp in every dimension, and between them they tie sp in every dimension
// (tied[d] holds the points equal to sp in d). An earlier equal splice was
// valid and above the floor like sp, so it was accepted or equals one that
// was.
func (s *Scratch) first3(sp [3]float64, i, j int, pool uint64, tied [3]uint64) bool {
	sky := s.skyPts
	for ks := pool & (2<<i - 1); ks != 0; ks &= ks - 1 {
		k := bits.TrailingZeros64(ks)
		ls := pool &^ (2<<k - 1) // l > k, tying sp wherever k does not
		for _, t := range tied {
			if t>>k&1 == 0 {
				ls &= t
			}
		}
		if k == i {
			ls &= 1<<j - 1
		}
		for p := sky[3*k:][:3]; ls != 0; ls &= ls - 1 {
			q, same := sky[3*bits.TrailingZeros64(ls):][:3], true
			for d, x := range p {
				if q[d] > x {
					x = q[d]
				}
				same = same && math.Float64bits(x) == math.Float64bits(sp[d])
			}
			if same {
				return false
			}
		}
	}
	return true
}

// splices3 is splices for three dimensions and a skyline of at most 64
// points, where a closer set is one word and a pair's validity is
// (c_p0|c_q0) & (c_p1|c_q1) & (c_p2|c_q2) == 0. The loop does nothing else;
// a valid pair goes to splice3.
func (s *Scratch) splices3(b geom.Corner, origin []float64, floor float64) {
	n := len(s.sky)
	s.closerSets(b)
	c0s := s.closer[:n]
	c1s, c2s := s.closer[n:][:len(c0s)], s.closer[2*n:][:len(c0s)]
	for i := 0; i < n-1; i++ {
		c0, c1, c2 := c0s[i], c1s[i], c2s[i]
		for j := i + 1; j < len(c0s); j++ {
			if (c0|c0s[j])&(c1|c1s[j])&(c2|c2s[j]) == 0 {
				s.splice3(i, j, origin, floor)
			}
		}
	}
}

// splice3 splices the valid pair (i, j) of splices3 and accepts the splice if
// it is above the floor and new. The splice takes j's coordinate where i is
// strictly closer, which j's closer sets say without comparing floats. A
// splice equal to another takes each coordinate from a point of the other
// pair, so some third point is at most as far as the splice in every
// dimension — not strictly closer in all of them, the splice being valid, so
// this needs ties; first3 is only asked when the sets of points at most as
// far hold such a point.
func (s *Scratch) splice3(i, j int, origin []float64, floor float64) {
	n, sky, closer, notFar := len(s.sky), s.skyPts, s.closer, s.notFar
	a := i + (j-i)*int(closer[j]>>i&1)
	b := n + i + (j-i)*int(closer[n+j]>>i&1)
	c := 2*n + i + (j-i)*int(closer[2*n+j]>>i&1)
	sp := [3]float64{sky[3*a], sky[3*(b-n)+1], sky[3*(c-2*n)+2]}
	v := (sp[0] - origin[0]) * (sp[1] - origin[1]) * (sp[2] - origin[2])
	if v <= floor {
		return
	}
	if pool := notFar[a] & notFar[b] & notFar[c]; pool == 1<<i|1<<j ||
		s.first3(sp, i, j, pool, [3]uint64{notFar[a] &^ closer[a], notFar[b] &^ closer[b], notFar[c] &^ closer[c]}) {
		s.accept(sp[:], v)
	}
}

func sameBits(p, q []float64) bool {
	for d, x := range p {
		if math.Float64bits(x) != math.Float64bits(q[d]) {
			return false
		}
	}
	return true
}
