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
// Everything here runs on corner-normalised data: the caller reflects the
// points once (Reflect: x' = −x in every dimension the corner maximises,
// exact and self-inverse, ±0 included) so that the corner becomes the
// minimum corner, and hands them over as one flat []float64. "Closer to the
// corner" is then "smaller" in every dimension, a splice is a coordinate-wise
// max, and no kernel looks at the corner bitmask again.
//
// Scratch.Candidates is the pipeline. For n points in d dimensions of which s
// survive into the skyline and c become candidates:
//
//  1. skyline: sort lexicographically, O(n log n), then sweep — a point
//     survives iff no earlier survivor is at most as far from the corner in
//     the remaining dimensions: a running minimum for d = 2, a staircase for
//     d = 3, the survivor list otherwise, O(n·s) at worst;
//  2. floor: a skyline point or splice whose corner rectangle is no larger
//     than the caller's floor is dropped at once — the caller could never
//     store it;
//  3. splices: "which skyline points are strictly closer than r in dimension
//     d" is laid out once as bitsets, O(s²·d) comparisons; each of the
//     s(s−1)/2 pairs is then validated with d word operations per 64 skyline
//     points, and only a valid pair is spliced, floored, O(d), and compared
//     with the candidates already accepted, O(c).
//
// That is O(n log n + n·s + s²·d) plus O(c) per valid splice. The generator
// this replaced spliced every pair, compared it with every candidate so far
// and only then validated it against the skyline — O(s²·(c+s)·d), quartic in
// s where most splices are valid, which is what "unfortunately cubic … still
// practically reasonable" had grown into for three-dimensional leaves.
package skyline

import (
	"cmp"
	"math"
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
// ready to use; one Scratch serves any number of calls (of any
// dimensionality) from one goroutine and grows to the largest input seen.
type Scratch struct {
	order  []sortKey // the input points, sorted
	stair  []float64 // the three-dimensional sweep's (y, z) staircase
	sky    []int32   // the skyline, as indices into the input
	skyPts []float64 // the skyline's coordinates, packed for the pair loop
	closer []uint64  // the pair loop's per-point, per-dimension bitsets
	splice []float64 // the pair loop's current splice
	coords []float64 // accepted candidates
	vols   []float64 // their corner-rectangle volumes
}

// Candidates returns the clip-point candidates among pts — len(pts)/dims
// corner-normalised points stored back to back — as packed coordinates plus
// the volume of each candidate's corner rectangle [origin, candidate]: the
// skyline points and, with splice set, the valid splices of skyline pairs
// (Line 6 of Algorithm 1), in both cases only those whose volume exceeds
// floor. origin must bound the points from below in every dimension (it is
// the reflected MBB corner). Both results alias the Scratch and are valid
// until its next call; pts is only read.
//
// The order is part of the contract, because callers break score ties by it:
// skyline points first, in input order — except in two dimensions, where they
// come in staircase order, dimension 0 ascending — then splices in the order
// (i, j), i < j, of the skyline pairs that produced them. Points that compare
// equal are represented by the first of them in input order (in two
// dimensions: by whichever the sort puts first, which only matters to the
// sign of a zero).
func (s *Scratch) Candidates(pts []float64, dims int, origin []float64, floor float64, splice bool) (coords, vols []float64) {
	s.skyline(pts, dims)
	s.coords, s.vols, s.skyPts = s.coords[:0], s.vols[:0], s.skyPts[:0]
	for _, i := range s.sky {
		p := pts[int(i)*dims:][:dims]
		if splice {
			s.skyPts = append(s.skyPts, p...)
		}
		if v := volume(p, origin); !(v <= floor) {
			s.accept(p, v)
		}
	}
	if splice {
		s.splices(dims, origin, floor)
	}
	return s.coords, s.vols
}

func (s *Scratch) accept(p []float64, v float64) {
	s.coords = append(s.coords, p...)
	s.vols = append(s.vols, v)
}

// sortKey is a point's place in the lexicographic sort: its first coordinate,
// which settles almost every comparison, and its index for the rest.
type sortKey struct {
	x float64
	i int32
}

// skyline leaves in s.sky the points not dominated by any other
// (Definition 5): sort lexicographically, so that whatever dominates or
// duplicates a point precedes it, then keep a point iff no survivor before
// it is <= in every dimension after the first (the first is <= by the sort).
func (s *Scratch) skyline(pts []float64, dims int) {
	n := len(pts) / dims
	order := slices.Grow(s.order[:0], n)
	for i := 0; i < n; i++ {
		order = append(order, sortKey{pts[i*dims], int32(i)})
	}
	slices.SortFunc(order, func(a, b sortKey) int {
		if a.x < b.x {
			return -1
		}
		if a.x > b.x {
			return 1
		}
		p, q := pts[int(a.i)*dims:][:dims], pts[int(b.i)*dims:][:dims]
		for d := 1; d < dims; d++ {
			if p[d] != q[d] {
				if p[d] < q[d] {
					return -1
				}
				return 1
			}
		}
		if dims == 2 {
			return 0
		}
		return cmp.Compare(a.i, b.i)
	})
	s.order = order
	sky := s.sky[:0]
	switch dims {
	case 2:
		// One dimension left: the survivors' best is the last survivor's.
		for _, k := range order {
			if len(sky) == 0 || pts[2*int(k.i)+1] < pts[2*int(sky[len(sky)-1])+1] {
				sky = append(sky, k.i)
			}
		}
		s.sky = sky
		return
	case 3:
		// Two dimensions left: the survivors' (y, z) minima form a staircase,
		// y ascending and z descending, and the step at or before y decides.
		stair := s.stair[:0]
		for _, k := range order {
			y, z := pts[3*int(k.i)+1], pts[3*int(k.i)+2]
			at := 0
			for at < len(stair) && stair[at] <= y {
				at += 2
			}
			if at > 0 && stair[at-1] <= z {
				continue
			}
			// The new step replaces the steps it dominates: one at the same y,
			// if any, and those after it that are no lower.
			from, to := at, at
			if at > 0 && stair[at-2] == y {
				from -= 2
			}
			for to < len(stair) && stair[to+1] >= z {
				to += 2
			}
			stair = slices.Replace(stair, from, to, y, z)
			sky = append(sky, k.i)
		}
		s.stair = stair
	default:
		for _, k := range order {
			p := pts[int(k.i)*dims:][:dims]
			keep := true
			for _, j := range sky {
				if below(pts[int(j)*dims:][:dims], p, 1) {
					keep = false
					break
				}
			}
			if keep {
				sky = append(sky, k.i)
			}
		}
	}
	slices.Sort(sky) // back to input order
	s.sky = sky
}

// below reports whether q[d] <= p[d] for every dimension d >= from.
func below(q, p []float64, from int) bool {
	for d := from; d < len(p); d++ {
		if q[d] > p[d] {
			return false
		}
	}
	return true
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
// bitsets over the skyline, O(s²·d) comparisons for all pairs together, a
// pair is an OR and an AND of words per dimension.
//
// Above the floor? Computed only now, with the splice itself.
//
// New? It is a duplicate iff a candidate already accepted has the same bit
// patterns (±0 are distinct); a duplicate has the same volume, so it is
// enough to look among the candidates that cleared the floor, and at their
// coordinates only when the volumes agree.
func (s *Scratch) splices(dims int, origin []float64, floor float64) {
	sky := s.skyPts
	n := len(sky) / dims
	words := (n + 63) / 64
	closer := s.closerSets(dims)
	s.splice = slices.Grow(s.splice[:0], dims)[:dims]
	sp := s.splice
	for i := 0; i < n-1; i++ {
		p, pc := sky[i*dims:][:dims], closer[i*dims*words:][:dims*words]
	pairs:
		for j := i + 1; j < n; j++ {
			q, qc := sky[j*dims:][:dims], closer[j*dims*words:][:dims*words]
			for w := 0; w < words; w++ {
				invalidating := ^uint64(0)
				for at := w; at < len(pc); at += words { // once per dimension
					invalidating &= pc[at] | qc[at]
				}
				if invalidating != 0 {
					continue pairs
				}
			}
			v := 1.0
			for d, x := range p {
				if q[d] > x {
					x = q[d]
				}
				sp[d] = x
				v *= x - origin[d]
			}
			if v <= floor {
				continue
			}
			for k, kv := range s.vols {
				if kv == v && sameBits(s.coords[k*dims:][:dims], sp) {
					continue pairs
				}
			}
			s.accept(sp, v)
		}
	}
}

// closerSets lays out, for every skyline point r and dimension d, the set of
// skyline points strictly closer to the corner than r in d, as a bitset of
// (n+63)/64 words at index (r*dims+d)*words: bit q of word w is point 64w+q.
func (s *Scratch) closerSets(dims int) []uint64 {
	sky := s.skyPts
	n := len(sky) / dims
	words := (n + 63) / 64
	closer := slices.Grow(s.closer[:0], len(sky)*words)[:len(sky)*words]
	s.closer = closer
	for at, x := range sky { // at = r*dims+d
		d := at % dims
		for w := 0; w < words; w++ {
			var set uint64
			first := 64*w*dims + d
			for q := (min(n, 64*w+64)-1)*dims + d; q >= first; q -= dims {
				set <<= 1
				if sky[q] < x {
					set |= 1
				}
			}
			closer[at*words+w] = set
		}
	}
	return closer
}

func sameBits(p, q []float64) bool {
	for d, x := range p {
		if math.Float64bits(x) != math.Float64bits(q[d]) {
			return false
		}
	}
	return true
}
