package geom

import "strings"

// Corner is a bitmask identifying one corner of a d-dimensional rectangle.
// Bit i set means the corner takes the rectangle's maximum extent in
// dimension i; bit i clear means it takes the minimum extent. For a
// d-dimensional rectangle the valid corners are 0 .. (1<<d)-1.
//
// This is the paper's superscript notation: R^b.
type Corner uint32

// MaxDims is the largest dimensionality supported by Corner bitmasks.
const MaxDims = 30

// CornerCount returns the number of corners of a dims-dimensional rectangle.
func CornerCount(dims int) int { return 1 << uint(dims) }

// Bit reports whether dimension i of the corner selects the maximum extent.
func (c Corner) Bit(i int) bool { return c&(1<<uint(i)) != 0 }

// Opposite returns the diagonally opposite corner in dims dimensions
// (all bits flipped), i.e. the paper's ~b restricted to d bits.
func (c Corner) Opposite(dims int) Corner {
	return (^c) & Corner(1<<uint(dims)-1)
}

// String renders the corner as a bit string, lowest dimension first,
// e.g. Corner(0b01) in 2d renders as "10" meaning dimension 0 maximised.
func (c Corner) String() string {
	return c.StringDims(MaxDims)
}

// StringDims renders exactly dims bits, dimension 0 first.
func (c Corner) StringDims(dims int) string {
	if dims <= 0 {
		return ""
	}
	var sb strings.Builder
	for i := 0; i < dims; i++ {
		if c.Bit(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Corners iterates all corners of a dims-dimensional rectangle in ascending
// bitmask order, calling fn for each. It exists to make call sites read like
// the paper's "for each bitmask b in 0 .. 2^d - 1".
func Corners(dims int, fn func(Corner)) {
	n := CornerCount(dims)
	for b := 0; b < n; b++ {
		fn(Corner(b))
	}
}
