package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"cbb/internal/geom"
)

// lattice are the coordinate values the differential tests draw from: few
// enough that probes touch clip coordinates exactly all the time (dominance
// is strict), with both zeros.
var lattice = [...]float64{math.Copysign(0, -1), 0, -1, 1, 2, 3, -2.5, 1e-300, 1e300}

// checkRecordAgainstDefinition compares the flat kernel with the definitions
// it replaces on every path: QueryDead and insertDead for the two selectors,
// Intersects and ValidAfterInsert with the MBB test in front.
func checkRecordAgainstDefinition(t testing.TB, mbb geom.Rect, clips []ClipPoint, q geom.Rect) {
	t.Helper()
	dims := q.Dims()
	rec := NewRecord(clips, dims)
	var sel Sel
	sel.Query(q)
	if got, want := rec.Dead(dims, &sel), QueryDead(clips, q); got != want {
		t.Fatalf("dims %d query selector: Dead = %v, QueryDead = %v\nclips %v\nprobe %v", dims, got, want, clips, q)
	}
	if got, want := mbb.Intersects(q) && !rec.Dead(dims, &sel), Intersects(mbb, clips, q, SelectorQuery); got != want {
		t.Fatalf("dims %d: flat Algorithm 2 = %v, Intersects = %v\nmbb %v clips %v\nprobe %v", dims, got, want, mbb, clips, q)
	}
	sel.Insert(q)
	if got, want := rec.Dead(dims, &sel), insertDead(clips, q); got != want {
		t.Fatalf("dims %d insert selector: Dead = %v, insertDead = %v\nclips %v\nprobe %v", dims, got, want, clips, q)
	}
	if got, want := mbb.Intersects(q) && !rec.Dead(dims, &sel), ValidAfterInsert(mbb, clips, q); got != want {
		t.Fatalf("dims %d: flat validity = %v, ValidAfterInsert = %v\nmbb %v clips %v\nobject %v", dims, got, want, mbb, clips, q)
	}
}

func latticeRect(rng *rand.Rand, dims int, point bool) geom.Rect {
	lo, hi := make(geom.Point, dims), make(geom.Point, dims)
	for d := range lo {
		a, b := lattice[rng.Intn(len(lattice))], lattice[rng.Intn(len(lattice))]
		if point {
			b = a
		}
		lo[d], hi[d] = min(a, b), max(a, b)
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// The flat kernel is Algorithm 2 as internal/core defines it: dims 1–4 (the
// unrolled and the general loop), both selectors, probes that touch clip
// coordinates exactly, ±0, and zero-extent MBBs and probes.
func TestRecordDeadMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for dims := 1; dims <= 4; dims++ {
		for iter := 0; iter < 4000; iter++ {
			clips := make([]ClipPoint, rng.Intn(6))
			for i := range clips {
				coord := make(geom.Point, dims)
				for d := range coord {
					coord[d] = lattice[rng.Intn(len(lattice))]
				}
				clips[i] = ClipPoint{Coord: coord, Mask: geom.Corner(rng.Intn(geom.CornerCount(dims)))}
			}
			mbb := latticeRect(rng, dims, iter%7 == 0)
			checkRecordAgainstDefinition(t, mbb, clips, latticeRect(rng, dims, iter%5 == 0))
		}
	}
}

// Flattening is exact and self-inverse.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for dims := 1; dims <= 4; dims++ {
		clips := make([]ClipPoint, 9)
		for i := range clips {
			coord := make(geom.Point, dims)
			for d := range coord {
				coord[d] = lattice[rng.Intn(len(lattice))]
			}
			clips[i] = ClipPoint{Coord: coord, Mask: geom.Corner(rng.Intn(geom.CornerCount(dims))), Score: rng.Float64()}
		}
		rec := NewRecord(clips, dims)
		back := rec.Points(dims)
		if rec.Len(dims) != len(clips) || len(back) != len(clips) {
			t.Fatalf("dims %d: %d points in, %d in the record, %d out", dims, len(clips), rec.Len(dims), len(back))
		}
		for i, c := range clips {
			if back[i].Mask != c.Mask || back[i].Score != 0 {
				t.Fatalf("dims %d point %d: %v came back as %v", dims, i, c, back[i])
			}
			for d := range c.Coord {
				if math.Float64bits(back[i].Coord[d]) != math.Float64bits(c.Coord[d]) {
					t.Fatalf("dims %d point %d dimension %d: %x came back as %x", dims, i, d, math.Float64bits(c.Coord[d]), math.Float64bits(back[i].Coord[d]))
				}
			}
		}
	}
	if NewRecord(nil, 2) != nil || Record(nil).Points(2) != nil || Record(nil).Dead(2, new(Sel)) {
		t.Fatal("no clip points must be a nil record that kills nothing")
	}
}

// FuzzRecordDeadMatchesDefinition feeds the flat kernel and the definitions
// arbitrary clip points and probes (NaN aside: the definitions read a NaN
// clip coordinate as dominated, the kernel as never dominated, and neither a
// build nor a validated query produces one).
func FuzzRecordDeadMatchesDefinition(f *testing.F) {
	f.Add(uint8(2), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, dimsSeed uint8, data []byte) {
		dims := int(dimsSeed)%4 + 1
		next := func() float64 {
			if len(data) < 8 {
				return lattice[len(data)%len(lattice)]
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return v
		}
		rect := func() geom.Rect {
			lo, hi := make(geom.Point, dims), make(geom.Point, dims)
			for d := range lo {
				a, b := next(), next()
				lo[d], hi[d] = min(a, b), max(a, b)
			}
			return geom.Rect{Lo: lo, Hi: hi}
		}
		mbb, q := rect(), rect()
		var clips []ClipPoint
		for len(data) > 0 && len(clips) < 16 {
			mask := geom.Corner(int(data[0]) % geom.CornerCount(dims))
			data = data[1:]
			coord := make(geom.Point, dims)
			for d := range coord {
				coord[d] = next()
			}
			clips = append(clips, ClipPoint{Coord: coord, Mask: mask})
		}
		checkRecordAgainstDefinition(t, mbb, clips, q)
	})
}

// clipMinDistSq is Record.MinDistSq as the text defines it, over []ClipPoint:
// the box's own distance, raised by every clip point whose dead corner region
// p lies strictly inside (or faces) to the nearest of the dims slabs of the
// box beyond the clip coordinate — min over slabs, max over points.
func clipMinDistSq(box geom.Rect, clips []ClipPoint, p geom.Point) float64 {
	bound := box.MinDistSq(p)
	for _, c := range clips {
		inside, nearest := true, math.Inf(1)
		for d := range p {
			slab := box.Clone()
			if c.Mask.Bit(d) {
				slab.Hi[d], inside = c.Coord[d], inside && p[d] > c.Coord[d]
			} else {
				slab.Lo[d], inside = c.Coord[d], inside && p[d] < c.Coord[d]
			}
			nearest = min(nearest, slab.MinDistSq(p))
		}
		if inside {
			bound = max(bound, nearest)
		}
	}
	return bound
}

func flatBox(r geom.Rect) []float64 { return append(append([]float64(nil), r.Lo...), r.Hi...) }

// The flat bound is the definition bit for bit: dims 1–4, points inside,
// outside and on clip coordinates, ±0, coordinates whose squares overflow —
// and the unrolled dims 2 and 3 are the general loop's bits too.
func TestClipMinDistMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for dims := 1; dims <= 4; dims++ {
		for iter := 0; iter < 4000; iter++ {
			box := latticeRect(rng, dims, iter%7 == 0)
			clips := make([]ClipPoint, rng.Intn(6))
			for i := range clips {
				// Clip points lie in the MBB, which the box contains.
				coord := make(geom.Point, dims)
				for d := range coord {
					coord[d] = []float64{box.Lo[d], box.Hi[d], (box.Lo[d] + box.Hi[d]) / 2}[rng.Intn(3)]
				}
				clips[i] = ClipPoint{Coord: coord, Mask: geom.Corner(rng.Intn(geom.CornerCount(dims)))}
			}
			p := latticeRect(rng, dims, true).Lo
			var sel Sel
			sel.Query(geom.Rect{Lo: p, Hi: p})
			rec := NewRecord(clips, dims)
			got, want := rec.MinDistSq(dims, &sel, flatBox(box)), clipMinDistSq(box, clips, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dims %d: MinDistSq = %v, definition %v\nbox %v clips %v\np %v", dims, got, want, box, clips, p)
			}
			if general := rec.minDistSq(dims, &sel, flatBox(box)); math.Float64bits(got) != math.Float64bits(general) {
				t.Fatalf("dims %d: MinDistSq = %v, general loop %v\nbox %v clips %v\np %v", dims, got, general, box, clips, p)
			}
			if plain := box.MinDistSq(p); len(clips) == 0 && math.Float64bits(got) != math.Float64bits(plain) {
				t.Fatalf("dims %d: no clip points, MinDistSq = %v, the box's %v", dims, got, plain)
			}
		}
	}
}

// checkClipMinDistIsLowerBound clips the children with Algorithm 1 and holds
// the bound between the plain MINDIST² of the box and the distance of the
// nearest child, as Rect.MinDistSq computes both, for the MBB itself and for
// a superset of it (a v2 directory page's conservatively rounded box); the
// unrolled dimensionalities must return the general loop's bits.
func checkClipMinDistIsLowerBound(t testing.TB, children []geom.Rect, grow []float64, p geom.Point) {
	t.Helper()
	dims := len(p)
	mbb := geom.MBROf(children)
	nearest := math.Inf(1)
	for _, c := range children {
		nearest = min(nearest, c.MinDistSq(p))
	}
	var sel Sel
	sel.Query(geom.Rect{Lo: p, Hi: p})
	super := mbb.Clone()
	for d := range super.Lo {
		super.Lo[d] -= grow[2*d]
		super.Hi[d] += grow[2*d+1]
	}
	for _, m := range []Method{MethodSkyline, MethodStairline} {
		clips := Clip(mbb, children, Params{K: 1 << 10, Tau: 0, Method: m})
		rec := NewRecord(clips, dims)
		for _, box := range []geom.Rect{mbb, super} {
			got := rec.MinDistSq(dims, &sel, flatBox(box))
			if general := rec.minDistSq(dims, &sel, flatBox(box)); math.Float64bits(got) != math.Float64bits(general) {
				t.Fatalf("dims %d %v: bound %v, general loop %v\nbox %v clips %v\np %v", dims, m, got, general, box, clips, p)
			}
			if plain := box.MinDistSq(p); got < plain || got > nearest {
				t.Fatalf("dims %d %v: bound %v outside [box %v, nearest child %v]\nchildren %v\nbox %v clips %v\np %v", dims, m, got, plain, nearest, children, box, clips, p)
			}
		}
	}
}

func TestClipMinDistIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	lifted := 0
	for dims := 1; dims <= 4; dims++ {
		for iter := 0; iter < 1500; iter++ {
			children := make([]geom.Rect, 1+rng.Intn(12))
			for i := range children {
				children[i] = latticeRect(rng, dims, iter%3 == 0)
			}
			grow := make([]float64, 2*dims)
			for i := range grow {
				grow[i] = []float64{0, 0.5, 3}[rng.Intn(3)]
			}
			p := latticeRect(rng, dims, true).Lo
			if iter%2 == 0 { // off the lattice: strictly inside dead corners more often
				for d := range p {
					p[d] = rng.Float64()*7 - 3.5
				}
			}
			checkClipMinDistIsLowerBound(t, children, grow, p)
			mbb := geom.MBROf(children)
			var sel Sel
			sel.Query(geom.Rect{Lo: p, Hi: p})
			rec := NewRecord(Clip(mbb, children, Params{K: 1 << 10, Method: MethodStairline}), dims)
			if rec.MinDistSq(dims, &sel, flatBox(mbb)) > mbb.MinDistSq(p) {
				lifted++
			}
		}
	}
	if lifted < 100 {
		t.Fatalf("the bound rose above the MBB's in %d cases only; the test is vacuous", lifted)
	}
}

// FuzzClipMinDistIsLowerBound lets the fuzzer place the children, the point
// and the superset margins: finite float64s straight from the input, so
// children touch, nest and degenerate, and the point lands on clip
// coordinates.
func FuzzClipMinDistIsLowerBound(f *testing.F) {
	f.Add(uint8(2), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, dimsSeed uint8, data []byte) {
		dims := int(dimsSeed)%4 + 1
		spent := 0
		next := func() float64 {
			if len(data) < 8 {
				data, spent = nil, spent+1
				return lattice[spent%len(lattice)]
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return v
		}
		p := make(geom.Point, dims)
		grow := make([]float64, 2*dims)
		for d := range p {
			p[d], grow[2*d], grow[2*d+1] = next(), math.Abs(next()), math.Abs(next())
		}
		children := make([]geom.Rect, 1, 13)
		for i := 0; i < cap(children) && (i == 0 || len(data) > 0); i++ {
			lo, hi := make(geom.Point, dims), make(geom.Point, dims)
			for d := range lo {
				a, b := next(), next()
				lo[d], hi[d] = min(a, b), max(a, b)
			}
			children = append(children[:i], geom.Rect{Lo: lo, Hi: hi})
		}
		checkClipMinDistIsLowerBound(t, children, grow, p)
	})
}
