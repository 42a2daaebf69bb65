// Package hilbert implements the Hilbert space-filling curve in arbitrary
// dimensionality, used by the Hilbert R-tree (HR-tree) variant to order
// spatially-near objects before packing them into leaves, by every batch
// insert to order its items, and by the sharded engine to route writes.
//
// The curve is Skilling's ("Programming the Hilbert curve", AIP 2004):
// coordinates are mapped to a transposed Hilbert representation with
// Gray-code untangling and then bit-interleaved into a single integer index.
// The transform runs without data-dependent branches and gives Skilling's
// index to the bit.
package hilbert

import (
	"errors"
	"fmt"

	"cbb/internal/geom"
)

// MaxTotalBits is the largest index width supported (dims*bits must not
// exceed it so that indices fit into a uint64).
const MaxTotalBits = 63

// MaxBitsPerDim is the largest curve order per dimension: cell coordinates
// are uint32, so more than 32 bits per axis cannot be represented.
const MaxBitsPerDim = 32

// Curve maps points in a fixed bounding universe to positions on a Hilbert
// curve of a given order. It is safe for concurrent use.
type Curve struct {
	dims     int
	bits     int
	universe geom.Rect
	scale    []float64
}

// New creates a curve of the given order (bits per dimension) over the given
// universe rectangle. Points outside the universe are clamped onto it.
func New(universe geom.Rect, bits int) (*Curve, error) {
	dims := universe.Dims()
	if dims < 1 {
		return nil, errors.New("hilbert: universe must have at least one dimension")
	}
	if bits < 1 || dims*bits > MaxTotalBits {
		return nil, fmt.Errorf("hilbert: dims*bits = %d exceeds %d", dims*bits, MaxTotalBits)
	}
	if bits > MaxBitsPerDim {
		return nil, fmt.Errorf("hilbert: bits = %d exceeds %d per dimension", bits, MaxBitsPerDim)
	}
	if !universe.Valid() {
		return nil, errors.New("hilbert: invalid universe rectangle")
	}
	c := &Curve{dims: dims, bits: bits, universe: universe.Clone(), scale: make([]float64, dims)}
	maxCell := float64(uint64(1)<<uint(bits) - 1)
	for d := 0; d < dims; d++ {
		side := universe.Hi[d] - universe.Lo[d]
		if side <= 0 {
			c.scale[d] = 0
		} else {
			c.scale[d] = maxCell / side
		}
	}
	return c, nil
}

// Dims returns the dimensionality of the curve.
func (c *Curve) Dims() int { return c.dims }

// Index returns the Hilbert index of a point (clamped to the universe).
// NaN coordinates map to cell 0 of their axis rather than producing an
// undefined float-to-integer conversion.
func (c *Curve) Index(p geom.Point) uint64 {
	var buf [8]uint32
	coords := buf[:]
	if c.dims > len(buf) {
		coords = make([]uint32, c.dims)
	} else {
		coords = coords[:c.dims]
	}
	maxCell := float64(uint64(1)<<uint(c.bits) - 1)
	for d := 0; d < c.dims; d++ {
		v := p[d]
		if v < c.universe.Lo[d] {
			v = c.universe.Lo[d]
		}
		if v > c.universe.Hi[d] {
			v = c.universe.Hi[d]
		}
		// Clamp the scaled cell as well: float rounding can push a point on
		// the universe boundary one cell past maxCell, and a NaN coordinate
		// survives the interval clamp above (every comparison is false).
		f := (v - c.universe.Lo[d]) * c.scale[d]
		if !(f > 0) { // also catches NaN
			f = 0
		}
		if f > maxCell {
			f = maxCell
		}
		coords[d] = uint32(f)
	}
	return encode(coords, c.bits)
}

// MaxIndex returns the largest index the curve can produce: 2^(dims*bits)-1.
func (c *Curve) MaxIndex() uint64 {
	return uint64(1)<<uint(c.dims*c.bits) - 1
}

// IndexRect returns the Hilbert index of the centre of a rectangle, which is
// how the Hilbert R-tree orders data rectangles. The centre is computed
// inline so ordering large entry sets allocates nothing.
func (c *Curve) IndexRect(r geom.Rect) uint64 {
	var buf [8]float64
	ctr := buf[:]
	if c.dims > len(buf) {
		ctr = make([]float64, c.dims)
	} else {
		ctr = ctr[:c.dims]
	}
	for d := 0; d < c.dims; d++ {
		ctr[d] = (r.Lo[d] + r.Hi[d]) / 2
	}
	return c.Index(geom.Point(ctr))
}

// encode returns the Hilbert index of cell coordinates, each below 2^bits,
// overwriting them on the transform's path.
func encode(x []uint32, bits int) uint64 {
	transpose(x, bits)
	var out uint64
	for b := bits - 1; b >= 0; b-- {
		for _, v := range x {
			out = out<<1 | uint64(v>>uint(b)&1)
		}
	}
	return out
}

// transpose is Skilling's in-place map from Cartesian coordinates to the
// transposed Hilbert representation, with every data-dependent choice taken
// as a mask. At bit level b, axis i inverts axis 0's lower bits when its own
// bit b is set and exchanges its lower bits with axis 0's when it is clear;
// then the axes are Gray-coded, and every axis is flipped below each set bit
// of the last one (a running parity from the top, one shift cascade). Axis 0,
// which every step reads and writes, is held in a local; its own step (an
// exchange with itself is a no-op) is the inversion alone.
func transpose(x []uint32, bits int) {
	x0, rest := x[0], x[1:]
	for b := uint(bits - 1); b > 0; b-- {
		p := uint32(1)<<b - 1
		x0 ^= p & -(x0 >> b & 1)
		for i, xi := range rest {
			set := -(xi >> b & 1)
			t := (x0 ^ xi) & p &^ set
			x0 ^= t | p&set
			rest[i] = xi ^ t
		}
	}
	x[0] = x0
	for i := 1; i < len(x); i++ {
		x[i] ^= x[i-1]
	}
	t := x[len(x)-1] >> 1
	t ^= t >> 1
	t ^= t >> 2
	t ^= t >> 4
	t ^= t >> 8
	t ^= t >> 16
	for i := range x {
		x[i] ^= t
	}
}
