package geom

// This file implements the oriented-dominance machinery of Section III of
// the paper (Definitions 4 and 6). Dominance is always relative to a corner
// bitmask b of an enclosing rectangle: p dominates q w.r.t. b when p is at
// least as close to the corner R^b as q in every dimension and strictly
// closer in at least one. Equivalently (and how it is used in Algorithm 2):
// p ≺_b q iff p lies inside the MBB of {q, R^b} and p != q.

// Dominates reports whether p dominates q with respect to corner b
// (Definition 4). Bit i of b set means the corner maximises dimension i, so
// "closer to the corner" in that dimension means "greater or equal".
func Dominates(p, q Point, b Corner) bool {
	allGE := true // p at least as close as q in every dimension
	strict := false
	for i := range p {
		if b.Bit(i) {
			// Corner maximises dimension i: closer means larger.
			if p[i] < q[i] {
				allGE = false
				break
			}
			if p[i] > q[i] {
				strict = true
			}
		} else {
			// Corner minimises dimension i: closer means smaller.
			if p[i] > q[i] {
				allGE = false
				break
			}
			if p[i] < q[i] {
				strict = true
			}
		}
	}
	return allGE && strict
}

// StrictlyDominates reports whether p is strictly closer to corner R^b than
// q in every dimension. This is the exact condition under which the open
// interior of the corner rectangle spanned by q (the region q would clip
// away) contains part of the axis-aligned object whose nearest corner to R^b
// is p. It is therefore the test used both to validate generated splice
// points and to decide whether a query/insert rectangle falls entirely into
// clipped dead space: boundary contact never counts.
func StrictlyDominates(p, q Point, b Corner) bool {
	for i := range p {
		if b.Bit(i) {
			if p[i] <= q[i] {
				return false
			}
		} else {
			if p[i] >= q[i] {
				return false
			}
		}
	}
	return true
}

// SpliceInto writes the splice point b(p, q) of Definition 6 into dst, which
// must have the same dimensionality as p and q: dimension i takes
// max(p[i], q[i]) when bit i of b is set and min(p[i], q[i]) otherwise.
// Splicing with mask ~b therefore produces the point between p and q that is
// farthest from corner R^b, which is how stairline candidates are generated;
// the caller owns the scratch point (the stairline generator computes every
// candidate pair but keeps only the valid ones).
func SpliceInto(dst, p, q Point, b Corner) {
	for i := range p {
		if b.Bit(i) {
			if p[i] >= q[i] {
				dst[i] = p[i]
			} else {
				dst[i] = q[i]
			}
		} else {
			if p[i] <= q[i] {
				dst[i] = p[i]
			} else {
				dst[i] = q[i]
			}
		}
	}
}

// CloserToCorner reports whether p is strictly closer to corner R^b than q
// in dimension i (used by skyline sorting).
func CloserToCorner(p, q Point, b Corner, i int) bool {
	if b.Bit(i) {
		return p[i] > q[i]
	}
	return p[i] < q[i]
}
