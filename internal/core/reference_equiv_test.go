package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cbb/internal/geom"
)

// sameClips fails the test unless got and want agree in length, order, masks
// and the bit pattern of every coordinate and score.
func sameClips(t *testing.T, what string, got, want []ClipPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d clip points, reference has %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		same := g.Mask == w.Mask && math.Float64bits(g.Score) == math.Float64bits(w.Score) && len(g.Coord) == len(w.Coord)
		for d := 0; same && d < len(w.Coord); d++ {
			same = math.Float64bits(g.Coord[d]) == math.Float64bits(w.Coord[d])
		}
		if !same {
			t.Fatalf("%s: clip point %d is %v score %x, reference has %v score %x\n got %v\nwant %v",
				what, i, g, math.Float64bits(g.Score), w, math.Float64bits(w.Score), got, want)
		}
	}
}

// checkClipMatchesReference clips one node with every K, τ and method of the
// equivalence matrix, through a fresh Clipper and through the shared one.
func checkClipMatchesReference(t *testing.T, shared *Clipper, mbb geom.Rect, children []geom.Rect) {
	t.Helper()
	dims := mbb.Dims()
	for _, k := range []int{1, 1 << uint(dims+1), 64} {
		for _, tau := range []float64{0, 0.025, 0.5} {
			for _, m := range []Method{MethodSkyline, MethodStairline} {
				p := Params{K: k, Tau: tau, Method: m}
				want := refClip(mbb, children, p)
				sameClips(t, "Clip", Clip(mbb, children, p), want)
				sameClips(t, "Clipper.Clip (reused)", shared.Clip(mbb, children, p), want)
				rec, wantRec := shared.Record(mbb, children, p), NewRecord(want, dims)
				if !slices.EqualFunc(rec, wantRec, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
					t.Fatalf("Clipper.Record = %v, the reference's record %v", rec, wantRec)
				}
			}
		}
	}
}

// referenceNode draws a node that exercises what the pipeline must get right
// to the bit: coordinates on a coarse grid (exact ties in every dimension),
// duplicate children, zero-extent children, signed zeros, and — the MBB being
// the children's own — children on every face. Half the nodes have small
// children (a leaf's objects: much dead space, many candidates), half have
// children of any size (a directory's overlapping subtrees).
func referenceNode(rng *rand.Rand, dims, fanout int) (geom.Rect, []geom.Rect) {
	grid := []float64{0, 4, 16}[rng.Intn(3)] // 0: continuous coordinates
	small := rng.Intn(2) == 0
	coord := func() float64 {
		if grid == 0 {
			return rng.Float64()*200 - 100
		}
		v := float64(rng.Intn(int(2*grid)+1)) - grid
		if v == 0 && rng.Intn(2) == 0 {
			v = math.Copysign(0, -1)
		}
		return v
	}
	children := make([]geom.Rect, 0, fanout)
	for len(children) < fanout {
		if len(children) > 0 && rng.Intn(8) == 0 {
			children = append(children, children[rng.Intn(len(children))].Clone())
			continue
		}
		lo, hi := make(geom.Point, dims), make(geom.Point, dims)
		point := rng.Intn(6) == 0
		for d := 0; d < dims; d++ {
			a, b := coord(), coord()
			if small {
				b = a + math.Trunc((b-a)/8)
			}
			if point {
				b = a
			}
			if b < a {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		children = append(children, geom.Rect{Lo: lo, Hi: hi})
	}
	return geom.MBROf(children), children
}

// pageFanout is the node capacity M of a 4 KiB page in dims dimensions
// (rtree.MaxEntriesForPage): the largest node a tree of the default page
// size clips. Four dimensions stop at 16 — 16 corners × a cubic reference.
var pageFanout = [...]int{1: 170, 2: 102, 3: 72, 4: 16}

// TestClipMatchesReference is the invariant of the floor-first pipeline: the
// clip points of any node — coordinates, masks, scores, order — are those of
// the algorithm it replaced, bit for bit.
func TestClipMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20180416))
	iters := 600
	if testing.Short() {
		iters = 120
	}
	var shared Clipper
	for iter := 0; iter < iters; iter++ {
		dims := 1 + iter%4
		mbb, children := referenceNode(rng, dims, 1+rng.Intn(pageFanout[dims]))
		checkClipMatchesReference(t, &shared, mbb, children)
	}
}

// antiDiagonalNode draws a full node of point children on the plane
// Σ x_d = 0: no child's corner dominates another's, so the skyline of the
// minimum corner holds every child.
func antiDiagonalNode(rng *rand.Rand, dims int) (geom.Rect, []geom.Rect) {
	children := make([]geom.Rect, pageFanout[dims])
	for i := range children {
		p := make(geom.Point, dims)
		for d := 1; d < dims; d++ {
			p[d] = float64(rng.Intn(1 << 20))
			p[0] -= p[d]
		}
		children[i] = geom.Rect{Lo: p, Hi: p.Clone()}
	}
	return geom.MBROf(children), children
}

// The nodes of TestClipMatchesReference rarely have skylines of more than 64
// points, where the stairline leaves its one-word closer sets for the general
// multi-word loop (three dimensions) and the two-dimensional staircase is at
// its longest: an anti-diagonal node of each page capacity has them.
func TestClipMatchesReferenceLargeSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	var shared Clipper
	for _, dims := range []int{2, 3} {
		mbb, children := antiDiagonalNode(rng, dims)
		sky := 0
		for i, c := range children {
			dominated := false
			for j, o := range children {
				dominated = dominated || geom.Dominates(o.Lo, c.Lo, 0) || j < i && o.Lo.Equal(c.Lo)
			}
			if !dominated {
				sky++
			}
		}
		if sky <= 64 {
			t.Fatalf("dims %d: the minimum corner's skyline has %d points, want more than 64", dims, sky)
		}
		checkClipMatchesReference(t, &shared, mbb, children)
	}
}

// FuzzClipMatchesReference lets the fuzzer pick the tie structure: every
// byte selects a coordinate from a small alphabet that includes both zeros,
// so mutations move children onto each other, onto faces and onto the origin.
func FuzzClipMatchesReference(f *testing.F) {
	f.Add(uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(3), []byte{0, 16, 0, 16, 0, 16, 3, 3, 3, 4, 4, 4, 9, 1, 9, 1, 9, 1, 2, 5, 7, 11, 13, 15})
	f.Add(uint8(1), []byte{0, 16, 16, 0})
	alphabet := []float64{math.Copysign(0, -1), 0, 1, 2, 3, 5, 8, 13, -1, -2, -3, -5, -8, -13, 0.5, -0.5, 1e-300}
	f.Fuzz(func(t *testing.T, d uint8, data []byte) {
		dims := 1 + int(d)%4
		var children []geom.Rect
		for len(data) >= 2*dims && len(children) < pageFanout[dims] {
			lo, hi := make(geom.Point, dims), make(geom.Point, dims)
			for i := 0; i < dims; i++ {
				a := alphabet[int(data[i])%len(alphabet)]
				b := alphabet[int(data[dims+i])%len(alphabet)]
				if b < a {
					a, b = b, a
				}
				lo[i], hi[i] = a, b
			}
			children = append(children, geom.Rect{Lo: lo, Hi: hi})
			data = data[2*dims:]
		}
		if len(children) == 0 {
			return
		}
		var shared Clipper
		checkClipMatchesReference(t, &shared, geom.MBROf(children), children)
	})
}

// A K far beyond anything a node can yield must cost nothing: scratch is
// sized by the candidates (the old pre-allocation of 2·K clip points made
// Options.MaxClipPoints = 1<<50 panic on the first clipped node).
func TestClipHugeK(t *testing.T) {
	objs := figure2Objects()
	mbb := geom.MBROf(objs)
	p := Params{K: 1 << 50, Tau: 0, Method: MethodStairline}
	sameClips(t, "Clip", Clip(mbb, objs, p), refClip(mbb, objs, Params{K: 1 << 10, Tau: 0, Method: MethodStairline}))
}

// A warm Clipper clips a node with two allocations — the clip points and the
// slab their coordinates share — and makes its record with one.
func TestClipperAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var c Clipper
	for _, dims := range []int{2, 3} {
		p := DefaultParams(dims)
		mbb, children := referenceNode(rng, dims, pageFanout[dims])
		for len(c.Clip(mbb, children, p)) == 0 { // a node of large children may have no dead space
			mbb, children = referenceNode(rng, dims, pageFanout[dims])
		}
		if got := testing.AllocsPerRun(20, func() { c.Clip(mbb, children, p) }); got > 2 {
			t.Errorf("dims %d: %v allocations per clipped node, want at most 2", dims, got)
		}
		if got := testing.AllocsPerRun(20, func() { c.Record(mbb, children, p) }); got > 1 {
			t.Errorf("dims %d: %v allocations per record, want at most 1", dims, got)
		}
	}
}
