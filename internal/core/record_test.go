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
