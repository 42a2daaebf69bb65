package geom

import (
	"math/rand"
	"testing"
)

func TestDominates2D(t *testing.T) {
	// Figure 2 of the paper: with b = 00 (lower-left corner), a point closer
	// to the lower-left in both dimensions dominates.
	o4 := Pt(6, 2) // stand-ins for o4^00 and o5^00
	o5 := Pt(8, 3)
	if !Dominates(o4, o5, 0b00) {
		t.Error("o4 should dominate o5 w.r.t. corner 00")
	}
	if Dominates(o5, o4, 0b00) {
		t.Error("o5 should not dominate o4 w.r.t. corner 00")
	}
	// With respect to the opposite corner the relation flips.
	if !Dominates(o5, o4, 0b11) {
		t.Error("o5 should dominate o4 w.r.t. corner 11")
	}
	// Equal points never dominate each other.
	if Dominates(o4, o4, 0b00) || Dominates(o4, o4, 0b11) {
		t.Error("a point must not dominate itself")
	}
	// Incomparable points.
	a, b := Pt(1, 5), Pt(5, 1)
	if Dominates(a, b, 0b00) || Dominates(b, a, 0b00) {
		t.Error("incomparable points should not dominate each other")
	}
}

func TestStrictlyDominates(t *testing.T) {
	if !StrictlyDominates(Pt(1, 1), Pt(2, 2), 0b00) {
		t.Error("strictly closer point should strictly dominate w.r.t. 00")
	}
	if StrictlyDominates(Pt(1, 2), Pt(2, 2), 0b00) {
		t.Error("tie in one dimension must not strictly dominate")
	}
	if !StrictlyDominates(Pt(9, 9), Pt(5, 5), 0b11) {
		t.Error("strictly closer point should strictly dominate w.r.t. 11")
	}
	if StrictlyDominates(Pt(5, 5), Pt(5, 5), 0b11) {
		t.Error("a point never strictly dominates itself")
	}
	// Strict dominance implies Definition-4 dominance.
	if StrictlyDominates(Pt(1, 1), Pt(2, 2), 0b00) && !Dominates(Pt(1, 1), Pt(2, 2), 0b00) {
		t.Error("strict dominance must imply dominance")
	}
}

func TestSplice(t *testing.T) {
	p, q := Pt(2, 7), Pt(5, 3)
	// Mask 00 takes the minimum in both dimensions.
	if got := splice(p, q, 0b00); !got.Equal(Pt(2, 3)) {
		t.Errorf("Splice 00 = %v, want (2,3)", got)
	}
	// Mask 11 takes the maximum in both dimensions.
	if got := splice(p, q, 0b11); !got.Equal(Pt(5, 7)) {
		t.Errorf("Splice 11 = %v, want (5,7)", got)
	}
	// Mixed mask.
	if got := splice(p, q, 0b01); !got.Equal(Pt(5, 3)) {
		t.Errorf("Splice 01 = %v, want (5,3)", got)
	}
	// Splice is symmetric in its point arguments.
	if !splice(p, q, 0b10).Equal(splice(q, p, 0b10)) {
		t.Error("Splice should be symmetric")
	}
}

// The paper's key example: c = splice of o1^11 and o4^11 with mask 00 clips
// more area w.r.t. corner R^11 than either source point.
func TestSpliceFartherFromCorner(t *testing.T) {
	r := R(0, 0, 10, 10)
	o1 := Pt(3, 9) // top-right corner of object 1 (high y, low x)
	o4 := Pt(9, 4) // top-right corner of object 4 (high x, low y)
	c := splice(o1, o4, Corner(0b11).Opposite(2))
	want := Pt(3, 4)
	if !c.Equal(want) {
		t.Fatalf("splice = %v, want %v", c, want)
	}
	vol1 := r.CornerRect(o1, 0b11).Volume()
	vol4 := r.CornerRect(o4, 0b11).Volume()
	volC := r.CornerRect(c, 0b11).Volume()
	if volC <= vol1 || volC <= vol4 {
		t.Fatalf("spliced point should clip more: %g vs %g, %g", volC, vol1, vol4)
	}
}

func TestDominanceMatchesMBBMembership(t *testing.T) {
	// Dominance w.r.t. b is equivalent to membership in the MBB of {q, R^b}
	// (for distinct points) — the paper states this equivalence just after
	// Definition 4. Verify on random data.
	rng := rand.New(rand.NewSource(99))
	r := R(0, 0, 0, 100, 100, 100)
	for iter := 0; iter < 2000; iter++ {
		dims := 3
		p := make(Point, dims)
		q := make(Point, dims)
		for i := 0; i < dims; i++ {
			p[i] = rng.Float64() * 100
			q[i] = rng.Float64() * 100
		}
		Corners(dims, func(b Corner) {
			mbb := r.CornerRect(q, b)
			inMBB := mbb.ContainsPoint(p) && !p.Equal(q)
			dom := Dominates(p, q, b)
			if dom != inMBB {
				t.Fatalf("dominance/MBB mismatch: p=%v q=%v b=%s dom=%v inMBB=%v",
					p, q, b.StringDims(dims), dom, inMBB)
			}
		})
	}
}

// Property: dominance is irreflexive, antisymmetric and transitive for every
// corner orientation.
func TestDominancePartialOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 1000; iter++ {
		dims := 2 + rng.Intn(2)
		pts := make([]Point, 3)
		for i := range pts {
			pts[i] = make(Point, dims)
			for d := 0; d < dims; d++ {
				pts[i][d] = float64(rng.Intn(10)) // small ints force ties
			}
		}
		Corners(dims, func(b Corner) {
			a, c, e := pts[0], pts[1], pts[2]
			if Dominates(a, a, b) {
				t.Fatal("dominance must be irreflexive")
			}
			if Dominates(a, c, b) && Dominates(c, a, b) {
				t.Fatal("dominance must be antisymmetric")
			}
			if Dominates(a, c, b) && Dominates(c, e, b) && !Dominates(a, e, b) {
				t.Fatalf("dominance must be transitive: %v %v %v corner %s", a, c, e, b.StringDims(dims))
			}
		})
	}
}

// Property: the splice of p and q with mask ~b dominates-or-equals both p
// and q w.r.t. b reversed — i.e. it is always at least as far from corner b
// as either source (the reason stairline points clip more).
func TestSpliceDominanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 1000; iter++ {
		dims := 2 + rng.Intn(2)
		p := make(Point, dims)
		q := make(Point, dims)
		for d := 0; d < dims; d++ {
			p[d] = rng.Float64() * 10
			q[d] = rng.Float64() * 10
		}
		Corners(dims, func(b Corner) {
			s := splice(p, q, b.Opposite(dims))
			// s must be weakly dominated by p and q w.r.t. b: i.e. p and q are
			// each at least as close to corner b as s in every dimension.
			if !(p.Equal(s) || Dominates(p, s, b)) || !(q.Equal(s) || Dominates(q, s, b)) {
				t.Fatalf("splice %v not farther from corner %s than sources %v %v",
					s, b.StringDims(dims), p, q)
			}
		})
	}
}

func TestCloserToCorner(t *testing.T) {
	if !CloserToCorner(Pt(5, 0), Pt(3, 0), 0b01, 0) {
		t.Error("5 is closer than 3 to a max corner in dim 0")
	}
	if !CloserToCorner(Pt(1, 0), Pt(3, 0), 0b00, 0) {
		t.Error("1 is closer than 3 to a min corner in dim 0")
	}
	if CloserToCorner(Pt(3, 0), Pt(3, 0), 0b00, 0) {
		t.Error("equal coordinates are not strictly closer")
	}
}

// splice is SpliceInto into a fresh point.
func splice(p, q Point, b Corner) Point {
	r := make(Point, len(p))
	SpliceInto(r, p, q, b)
	return r
}
