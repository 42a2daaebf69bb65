package rtree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cbb/internal/geom"
)

// nodeFromRects builds a detached node of the given kind over the given
// rects and syncs its quantised planes, without going through a tree.
func nodeFromRects(rects []geom.Rect, dims int, leaf bool) *node {
	n := &node{leaf: leaf}
	for i, r := range rects {
		n.appendEntry(Entry{Rect: r, Object: ObjectID(i), Child: NodeID(i)})
	}
	n.syncDerived(dims)
	return n
}

func leafFromRects(rects []geom.Rect, dims int) *node { return nodeFromRects(rects, dims, true) }

// quantVerdicts runs the quantised kernel of the node's kind for one query
// and returns the admitted-entry bitset as a bool slice.
func quantVerdicts(n *node, dims int, q geom.Rect) []bool {
	var qlo, qhi [geom.MaxDims]float64
	var qg [2 * geom.MaxDims]uint16
	copy(qlo[:dims], q.Lo)
	copy(qhi[:dims], q.Hi)
	quantiseQuery(n.qmbb, dims, qlo[:], qhi[:], &qg)
	mask := make([]uint64, (n.count()+63)>>6)
	scanPlanes(n.leaf, n.qplanes, n.count(), dims, &qg, mask)
	out := make([]bool, n.count())
	for i := range out {
		out[i] = mask[i>>6]&(1<<uint(i&63)) != 0
	}
	return out
}

// checkNeverMisses asserts the defining property of the conservative kernels:
// every entry that exactly intersects the query must be admitted by the
// quantised verdict, on n and on a node of the other kind over the same
// rects. (The reverse — an admitted entry that does not intersect — is an
// allowed false positive.)
func checkNeverMisses(t *testing.T, n *node, dims int, q geom.Rect) {
	t.Helper()
	twin := &node{leaf: !n.leaf, boxes: n.boxes, refs: n.refs}
	twin.syncDerived(dims)
	for _, k := range []*node{n, twin} {
		got := quantVerdicts(k, dims, q)
		for i := range k.refs {
			if k.rect(i, dims).Intersects(q) && !got[i] {
				t.Fatalf("quantised kernel (leaf %v) missed entry %d (%v) for query %v (node MBB %v)",
					k.leaf, i, k.rect(i, dims), q, k.qmbb)
			}
		}
	}
}

// refLeafVerdicts is a leaf's filter written out slot by slot from its exact
// boxes: every bound quantised onto the node's 16-bit grid with qlower and
// qupper, then cut to 8 bits by integer division — entry lower bounds and
// the query's upper bound rounded down, entry upper bounds and the query's
// lower bound rounded up, 256 kept as 255.
func refLeafVerdicts(n *node, dims int, q geom.Rect) []bool {
	down := func(g uint16) int { return int(g) / 256 }
	up := func(g uint16) int { return min(255, (int(g)+255)/256) }
	out := make([]bool, n.count())
	for i := range out {
		r := n.rect(i, dims)
		out[i] = true
		for d := 0; d < dims; d++ {
			lo, hi := n.qmbb[d], n.qmbb[dims+d]
			if down(qlower(r.Lo[d], lo, hi)) > down(qlower(q.Hi[d], lo, hi)) || up(qupper(r.Hi[d], lo, hi)) < up(qupper(q.Lo[d], lo, hi)) {
				out[i] = false
			}
		}
	}
	return out
}

// checkLeafVerdicts holds a leaf's verdicts for q to refLeafVerdicts and to
// every exact hit.
func checkLeafVerdicts(t *testing.T, n *node, dims int, q geom.Rect) {
	t.Helper()
	got, want := quantVerdicts(n, dims, q), refLeafVerdicts(n, dims, q)
	for i := range got {
		if n.rect(i, dims).Intersects(q) && !got[i] {
			t.Fatalf("leaf kernel missed entry %d (%v) for query %v (node MBB %v)", i, n.rect(i, dims), q, n.qmbb)
		}
		if got[i] != want[i] {
			t.Fatalf("leaf kernel admits entry %d (%v) = %v for query %v, reference %v (node MBB %v)",
				i, n.rect(i, dims), got[i], q, want[i], n.qmbb)
		}
	}
}

// TestLeafPlanesMatchReference builds leaves from exact boxes and holds
// their verdicts to refLeafVerdicts and to the exact hits, in 1, 2, 3 and 30
// dimensions: upper bounds in the top block of the 16-bit grid
// (65281-65535) land on 255, and so does a query's lower bound there; a
// degenerate dimension puts every bound on 0.
func TestLeafPlanesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, dims := range []int{1, 2, 3, 30} {
		for _, degenerate := range []bool{false, true} {
			rects := make([]geom.Rect, 50)
			for i := range rects {
				lo, hi := make(geom.Point, dims), make(geom.Point, dims)
				for d := range lo {
					a := rng.Float64()
					b := a + rng.Float64()*(1-a)
					if rng.Intn(3) == 0 {
						b = 1 - rng.Float64()*300/65535 // near the top of the grid
					}
					lo[d], hi[d] = min(a, b), max(a, b)
					if degenerate && d == 0 {
						lo[d], hi[d] = 0.5, 0.5
					}
				}
				rects[i] = geom.Rect{Lo: lo, Hi: hi}
			}
			n := leafFromRects(rects, dims)
			top := 0
			for i := range rects {
				for d := 0; d < dims; d++ {
					g := qupper(rects[i].Hi[d], n.qmbb[d], n.qmbb[dims+d])
					if lane := n.planeAt(dims, d, i, true); g > 65280 && lane != 255 || degenerate && d == 0 && lane != 0 {
						t.Fatalf("dims=%d: entry %d's upper bound on grid value %d has lane %d", dims, i, g, lane)
					}
					if g > 65280 && g < dirQMax {
						top++
					}
				}
			}
			if top == 0 && !(degenerate && dims == 1) {
				t.Fatalf("dims=%d: no upper bound fell in the grid's top block", dims)
			}
			for trial := 0; trial < 200; trial++ {
				q := geom.Rect{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
				for d := 0; d < dims; d++ {
					a, b := rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1
					if rng.Intn(3) == 0 {
						a = n.qmbb[dims+d] - rng.Float64()*300/65535*(n.qmbb[dims+d]-n.qmbb[d])
					}
					q.Lo[d], q.Hi[d] = min(a, b), max(a, b)
				}
				checkLeafVerdicts(t, n, dims, q)
			}
		}
	}
}

// FuzzLeafPlanes builds a leaf over fuzzed exact boxes on [off, off+span]
// and holds its verdicts for a fuzzed query to refLeafVerdicts and to every
// exact hit.
func FuzzLeafPlanes(f *testing.F) {
	f.Add(uint8(2), 0.0, 1.0, []byte{0, 0, 0xFF, 0xFF, 0x10, 0, 0x20, 0, 1, 0, 0xFE, 0xFF, 0, 0x80, 0xFF, 0xFF, 0x40, 0, 0x50, 0})
	f.Add(uint8(1), -3.5, 7.0, []byte{0x01, 0xFF, 0xFF, 0xFF, 0, 0, 0xFF, 0xFF, 0x02, 0xFF, 0x03, 0xFF})
	f.Add(uint8(3), 1e9, 1e-3, []byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, dimsSeed uint8, off, span float64, data []byte) {
		if !(math.Abs(off) < 1e300 && span > 0 && span < 1e300) {
			t.Skip("coordinates must be finite, like Insert's")
		}
		dims := int(dimsSeed)%3 + 1
		coord := func() float64 {
			v := binary.LittleEndian.Uint16(data)
			data = data[2:]
			return off + float64(v)/65535*span
		}
		box := func() geom.Rect {
			r := geom.Rect{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
			for d := 0; d < dims; d++ {
				a, b := coord(), coord()
				r.Lo[d], r.Hi[d] = min(a, b), max(a, b)
			}
			return r
		}
		if len(data) < 8*dims {
			return
		}
		q := box()
		var rects []geom.Rect
		for len(data) >= 4*dims && len(rects) < 130 {
			rects = append(rects, box())
		}
		checkLeafVerdicts(t, leafFromRects(rects, dims), dims, q)
	})
}

// TestQuantPlanesDegenerateMBB pins the zero-extent corner case: when every
// entry shares the same coordinate in a dimension, the node MBB collapses
// there, every bound quantises to grid 0, and the dimension must pass
// vacuously — no query overlapping the point may lose the entries.
func TestQuantPlanesDegenerateMBB(t *testing.T) {
	for dims := 1; dims <= 3; dims++ {
		// All entries are the identical point rect: MBB degenerate in every
		// dimension.
		pt := make(geom.Point, dims)
		for d := range pt {
			pt[d] = 3.25
		}
		rects := make([]geom.Rect, 9)
		for i := range rects {
			rects[i] = geom.Rect{Lo: pt.Clone(), Hi: pt.Clone()}
		}
		n := leafFromRects(rects, dims)
		for d := 0; d < dims; d++ {
			if n.qmbb[d] != 3.25 || n.qmbb[dims+d] != 3.25 {
				t.Fatalf("dims=%d: degenerate qmbb = %v", dims, n.qmbb)
			}
		}
		q := geom.Rect{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
		for d := 0; d < dims; d++ {
			q.Lo[d] = 3.0
			q.Hi[d] = 4.0
		}
		checkNeverMisses(t, n, dims, q)
		// A query through the degenerate point itself.
		checkNeverMisses(t, n, dims, geom.Rect{Lo: pt.Clone(), Hi: pt.Clone()})

		// Mixed: dimension 0 degenerate, the rest extended.
		if dims > 1 {
			rng := rand.New(rand.NewSource(7))
			for i := range rects {
				lo := make(geom.Point, dims)
				hi := make(geom.Point, dims)
				lo[0], hi[0] = 1.5, 1.5
				for d := 1; d < dims; d++ {
					lo[d] = rng.Float64()
					hi[d] = lo[d] + rng.Float64()
				}
				rects[i] = geom.Rect{Lo: lo, Hi: hi}
			}
			n = leafFromRects(rects, dims)
			for trial := 0; trial < 64; trial++ {
				checkNeverMisses(t, n, dims, randRect(rng, dims, 2, 1))
			}
		}
	}
}

// TestQuantPlanesBoundaryEntries pins the grid-endpoint exactness the
// conservative argument relies on: qdecode(0) == lo and qdecode(qMax) == hi
// exactly, so entries sitting on the node MBB faces survive queries that
// merely touch those faces.
func TestQuantPlanesBoundaryEntries(t *testing.T) {
	for dims := 1; dims <= 3; dims++ {
		lo := make(geom.Point, dims)
		hi := make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			lo[d] = -1.75
			hi[d] = 2.5
		}
		// One entry spanning the whole MBB, one at each extreme face.
		rects := []geom.Rect{
			{Lo: lo.Clone(), Hi: hi.Clone()},
			{Lo: lo.Clone(), Hi: lo.Clone()},
			{Lo: hi.Clone(), Hi: hi.Clone()},
		}
		n := leafFromRects(rects, dims)
		for d := 0; d < dims; d++ {
			// The leaf lane's 256-cell block, back on the 16-bit grid.
			if g := uint32(n.planeAt(dims, d, 1, true)) << 8; qdecode(n.qmbb[d], n.qmbb[dims+d], g) < lo[d] {
				t.Fatalf("dims=%d: boundary upper bound decodes below the face", dims)
			}
		}
		// Queries touching exactly one face must keep the face entry.
		touchLo := geom.Rect{Lo: lo.Clone(), Hi: lo.Clone()}
		touchHi := geom.Rect{Lo: hi.Clone(), Hi: hi.Clone()}
		for _, q := range []geom.Rect{touchLo, touchHi} {
			checkNeverMisses(t, n, dims, q)
		}
		got := quantVerdicts(n, dims, touchLo)
		if !got[0] || !got[1] {
			t.Fatalf("dims=%d: face-touching query lost boundary entries: %v", dims, got)
		}
	}
}

// TestQuantPlanesNeverMissRandom is the property test behind the fuzz
// target, run over dims 1..3 with adversarial coordinate spreads (tiny
// extents, huge magnitudes, negative ranges).
func TestQuantPlanesNeverMissRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	spans := []float64{1e-9, 1, 1e12}
	for dims := 1; dims <= 3; dims++ {
		for _, span := range spans {
			rects := make([]geom.Rect, 37)
			for i := range rects {
				r := randRect(rng, dims, span, span/4)
				for d := 0; d < dims; d++ {
					r.Lo[d] -= span / 2
					r.Hi[d] -= span / 2
				}
				rects[i] = r
			}
			n := leafFromRects(rects, dims)
			for trial := 0; trial < 128; trial++ {
				q := randRect(rng, dims, span, span/2)
				for d := 0; d < dims; d++ {
					q.Lo[d] -= span / 2
					q.Hi[d] -= span / 2
				}
				checkNeverMisses(t, n, dims, q)
			}
		}
	}
}

// TestInsertRejectsNonFinite pins that non-finite coordinates are rejected
// at every ingest entry point, so the quantiser never sees NaN or ±Inf and
// node MBBs stay finite (the grid math depends on it). A finite rectangle
// whose volume overflows is accepted, and under every variant the splits that
// meet it still split: in the quadratic split every enlargement difference of
// a group holding it is NaN, and a round used to pick slot -1 and panic.
func TestInsertRejectsNonFinite(t *testing.T) {
	cases := []struct {
		r      geom.Rect
		finite bool
	}{
		{geom.Rect{Lo: geom.Point{math.NaN(), 0}, Hi: geom.Point{1, 1}}, false},
		{geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{math.Inf(1), 1}}, false},
		{geom.Rect{Lo: geom.Point{math.Inf(-1), 0}, Hi: geom.Point{1, 1}}, false},
		{geom.Rect{Lo: geom.Point{-1e308, 0}, Hi: geom.Point{1e308, 1}}, true},
	}
	for i, c := range cases {
		for _, v := range AllVariants() {
			cfg := smallConfig(2, v)
			cfg.MaxEntries, cfg.MinEntries = 4, 2
			tr, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Insert(c.r, 1); (err == nil) != c.finite {
				t.Fatalf("case %d, %v: Insert(%v) error %v", i, v, c.r, err)
			}
			if !c.finite {
				if err := tr.BulkLoad([]Item{{Rect: c.r, Object: 1}}); err == nil {
					t.Errorf("case %d: BulkLoad accepted non-finite rect %v", i, c.r)
				}
				if _, err := tr.InsertItems([]Item{{Rect: c.r, Object: 1}}); err == nil {
					t.Errorf("case %d: InsertItems accepted non-finite rect %v", i, c.r)
				}
				continue
			}
			for k := 2; k <= 40; k++ {
				x := float64(k)
				if _, err := tr.Insert(geom.R(x, x, x+1, x+1), ObjectID(k)); err != nil {
					t.Fatalf("case %d, %v: insert %d: %v", i, v, k, err)
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("case %d, %v: %v", i, v, err)
			}
			if n := tr.Count(geom.R(-1e300, -1e300, 1e300, 1e300)); n != 40 {
				t.Fatalf("case %d, %v: %d objects found, want 40", i, v, n)
			}
		}
	}
}

// TestSyncSlotsMatchesSyncPlanes drives nodes through appends and rectangle
// replacements, each refreshed through syncDerived with the changed slots
// named, and holds qmbb, planes and page size to a full syncPlanes of the same
// boxes after every step: across plane-word boundaries (with and without spare
// capacity), for changes inside the MBB (written slot by slot) and outside it
// (rebuilt), on leaves and directory nodes in 1 to 3 dimensions.
func TestSyncSlotsMatchesSyncPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	partial, steps := 0, 0
	for dims := 1; dims <= 3; dims++ {
		for trial := 0; trial < 40; trial++ {
			leaf := trial%2 == 0
			n := nodeFromRects([]geom.Rect{randRect(rng, dims, 100, 10)}, dims, leaf)
			for step := 0; step < 60; step++ {
				// Mostly inside the current MBB, now and then beyond it.
				r := randRect(rng, dims, 100, 10)
				if rng.Intn(4) > 0 {
					r = randRect(rng, dims, 0, 0)
					for d := 0; d < dims; d++ {
						lo, hi := n.qmbb[d], n.qmbb[dims+d]
						a, b := lo+rng.Float64()*(hi-lo), lo+rng.Float64()*(hi-lo)
						r.Lo[d], r.Hi[d] = min(a, b), max(a, b)
					}
				}
				var slots []int
				switch k := rng.Intn(3); {
				case k == 0 && n.count() > 1:
					i := rng.Intn(n.count())
					n.resize(0, dims) // as Tree.setRect does
					copy(n.boxes[i*2*dims:], r.Lo)
					copy(n.boxes[i*2*dims+dims:], r.Hi)
					slots = []int{i}
				case k == 1 && n.count() > 1:
					i := rng.Intn(n.count())
					n.resize(0, dims) // as Tree.setRect does
					copy(n.boxes[i*2*dims:], r.Lo)
					copy(n.boxes[i*2*dims+dims:], r.Hi)
					n.appendEntry(Entry{Rect: randRect(rng, dims, 0, 0), Child: InvalidNode, Object: ObjectID(step)})
					slots = []int{i, n.count() - 1}
				default:
					if rng.Intn(2) == 0 {
						n.resize(1+rng.Intn(6), dims) // room reserved for later appends
					}
					n.appendEntry(Entry{Rect: r, Child: InvalidNode, Object: ObjectID(step)})
					slots = []int{n.count() - 1}
				}
				before := &n.qmbb[0]
				n.syncDerived(dims, slots...)
				if &n.qmbb[0] == before {
					partial++ // syncPlanes installs a fresh qmbb; syncSlots keeps it
				}
				want := &node{leaf: leaf, boxes: n.boxes, refs: n.refs}
				want.syncDerived(dims)
				if !slicesEqualBits(n.qmbb, want.qmbb) || !slices.Equal(n.qplanes, want.qplanes) || n.encSize != want.encSize {
					t.Fatalf("dims=%d leaf %v step %d (slots %v, %d entries): qmbb %v planes %x size %d, full sync %v %x %d",
						dims, leaf, step, slots, n.count(), n.qmbb, n.qplanes, n.encSize, want.qmbb, want.qplanes, want.encSize)
				}
				steps++
			}
		}
	}
	if partial < steps/3 || partial == steps {
		t.Fatalf("%d of %d refreshes took the slot-only path; the mix does not exercise both", partial, steps)
	}
}

func slicesEqualBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestValidateDetectsPlaneCorruption checks that Validate cross-checks the
// filter layer: a plane bound rewritten to be non-conservative, a truncated
// plane slice, a drifted plane MBB, and a leaf lane one leaf-grid step off
// must all be reported.
func TestValidateDetectsPlaneCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr, err := New(smallConfig(2, RStar))
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, 64)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, 2, 10, 1), Object: ObjectID(i)}
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("pristine tree fails validation: %v", err)
	}
	n := tr.mustNode(tr.root)
	// Non-conservative lower bound: force entry 0's dim-0 lower plane to the
	// top of the grid (its decode lands on the MBB hi, above the true lo
	// unless the MBB is degenerate — it is not, by construction).
	saved := n.qplanes[0]
	n.qplanes[0] |= uint64(dirQMax)
	if err := tr.Validate(); err == nil {
		t.Error("Validate missed a non-conservative plane bound")
	}
	n.qplanes[0] = saved
	// Truncated planes.
	savedPlanes := n.qplanes
	n.qplanes = n.qplanes[:len(n.qplanes)-1]
	if err := tr.Validate(); err == nil {
		t.Error("Validate missed a truncated plane slice")
	}
	n.qplanes = savedPlanes
	// Drifted plane MBB.
	savedLo := n.qmbb[0]
	n.qmbb[0] = savedLo - 1
	if err := tr.Validate(); err == nil {
		t.Error("Validate missed a drifted plane MBB")
	}
	n.qmbb[0] = savedLo
	// A leaf's upper-bound lane one step off its reduction of qupper.
	leaf := tr.mustNode(n.child(0))
	w := planeWords(leaf.count(), true)
	up := leaf.planeAt(2, 0, 0, true)
	setPlane(leaf.qplanes, w, LeafPlaneBits, 0, 0, true, up^1)
	if err := tr.Validate(); err == nil {
		t.Error("Validate missed a leaf plane lane one step off")
	}
	setPlane(leaf.qplanes, w, LeafPlaneBits, 0, 0, true, up)
	if err := tr.Validate(); err != nil {
		t.Fatalf("restored tree fails validation: %v", err)
	}
}

// TestValidateDetectsBoxCorruption checks that Validate checks the one exact
// slot store itself: an inverted box, a truncated coordinate array, and a
// directory ref to no node must all be reported.
func TestValidateDetectsBoxCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := MustNew(smallConfig(2, RStar))
	items := make([]Item, 64)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, 2, 10, 1), Object: ObjectID(i)}
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	root := tr.mustNode(tr.root)
	leaf := tr.mustNode(root.child(0))
	corrupt := func(what string, apply, undo func()) {
		t.Helper()
		apply()
		if err := tr.Validate(); err == nil {
			t.Errorf("Validate missed %s", what)
		}
		undo()
		if err := tr.Validate(); err != nil {
			t.Fatalf("tree restored after %s fails validation: %v", what, err)
		}
	}
	lo, hi := leaf.boxes[0], leaf.boxes[2]
	corrupt("a box with lo > hi",
		func() { leaf.boxes[0] = hi + 1 },
		func() { leaf.boxes[0] = lo })
	corrupt("a non-finite coordinate",
		func() { leaf.boxes[2] = math.Inf(1) },
		func() { leaf.boxes[2] = hi })
	boxes := leaf.boxes
	corrupt("a truncated coordinate array",
		func() { leaf.boxes = boxes[:len(boxes)-1] },
		func() { leaf.boxes = boxes })
	ref := root.refs[0]
	corrupt("a directory ref to no node",
		func() { root.refs[0] = int64(tr.dir.n) },
		func() { root.refs[0] = ref })
}

// TestValidateAcceptsDuplicateIDs holds Validate to Insert's contract, which
// permits duplicate object ids: the same object inserted twice, and two
// objects sharing an id, lie in one leaf of a valid tree.
func TestValidateAcceptsDuplicateIDs(t *testing.T) {
	tr := MustNew(smallConfig(2, RStar))
	r := geom.Rect{Lo: geom.Point{1, 1}, Hi: geom.Point{2, 2}}
	for _, it := range []Item{{Object: 7, Rect: r}, {Object: 7, Rect: r}, {Object: 7, Rect: geom.Rect{Lo: geom.Point{1, 1}, Hi: geom.Point{3, 3}}}} {
		if _, err := tr.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestV2DirPlanesAdoptedVerbatim pins the cross-store identity at its root:
// a directory node round-tripped through the compressed v2 page layout comes
// back with bit-identical packed planes and plane MBB (the decoder installs
// the page's stored grid coordinates; it never requantises decoded rects).
func TestV2DirPlanesAdoptedVerbatim(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, err := New(smallConfig(2, RStar))
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, 400)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, 2, 100, 2), Object: ObjectID(i)}
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	dirs, leaves := 0, 0
	for _, n := range dirNodes(tr) {
		if n == nil || n.count() == 0 {
			continue
		}
		buf, err := encodeNodeV2(n, 2)
		if err != nil {
			t.Fatalf("node %d: encode: %v", n.id, err)
		}
		dec, err := decodeNodeV2(buf, 2)
		if err != nil {
			t.Fatalf("node %d: decode: %v", n.id, err)
		}
		if !dec.hasPlanes(2) {
			t.Fatalf("node %d: decoded without planes", n.id)
		}
		if n.leaf {
			leaves++
		} else {
			dirs++
		}
		// Leaf pages are lossless, so requantising the decoded rects lands on
		// the same planes; directory pages must adopt the stored grid coords.
		// Either way the planes and their MBB must match bit for bit.
		for i, w := range n.qplanes {
			if dec.qplanes[i] != w {
				t.Fatalf("node %d (leaf=%v): plane word %d differs after round-trip: %#x != %#x",
					n.id, n.leaf, i, dec.qplanes[i], w)
			}
		}
		for d, v := range n.qmbb {
			if dec.qmbb[d] != v {
				t.Fatalf("node %d (leaf=%v): plane MBB extent %d differs: %v != %v",
					n.id, n.leaf, d, dec.qmbb[d], v)
			}
		}
	}
	if dirs == 0 || leaves == 0 {
		t.Fatalf("tree too small to cover both node kinds (dirs=%d leaves=%d)", dirs, leaves)
	}
}

// TestSearchAndKNNMatchPlaneFreeScan checks that the quantised kernel is a
// pure accelerator, never a semantic change: range queries return exactly
// the items a brute-force scan of the input finds, and nearest-neighbour
// queries return identical results in identical order once the filter layer
// is stripped off every node (the best-first search then skips its grid
// prefilter and computes every distance exactly).
func TestSearchAndKNNMatchPlaneFreeScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr, err := New(smallConfig(2, RStar))
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, 300)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, 2, 50, 2), Object: ObjectID(i)}
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		q := randRect(rng, 2, 50, 8)
		want := map[ObjectID]bool{}
		for _, it := range items {
			if it.Rect.Intersects(q) {
				want[it.Object] = true
			}
		}
		got := 0
		tr.CurrentVersion().Search(q, func(o ObjectID, _ geom.Rect) bool {
			if !want[o] {
				t.Fatalf("query %d returned object %d, which does not intersect it", i, o)
			}
			got++
			return true
		})
		if got != len(want) {
			t.Fatalf("query %d: %d hits, brute force finds %d", i, got, len(want))
		}
	}
	points := make([]geom.Point, 16)
	for i := range points {
		points[i] = geom.Point{rng.Float64() * 50, rng.Float64() * 50}
	}
	run := func() [][]Neighbor {
		var nns [][]Neighbor
		for _, p := range points {
			nns = append(nns, nearest(t, tr, 7, p))
		}
		return nns
	}
	wantNNs := run()
	for _, n := range dirNodes(tr) {
		if n != nil {
			n.qplanes = nil
			n.qmbb = nil
		}
	}
	gotNNs := run()
	for i := range wantNNs {
		if len(gotNNs[i]) != len(wantNNs[i]) {
			t.Fatalf("knn %d: %d results with planes, %d without", i, len(wantNNs[i]), len(gotNNs[i]))
		}
		for j := range wantNNs[i] {
			w, g := wantNNs[i][j], gotNNs[i][j]
			if w.Object != g.Object || w.DistSq != g.DistSq || !w.Rect.Equal(g.Rect) {
				t.Fatalf("knn %d result %d: %+v with planes, %+v without", i, j, w, g)
			}
		}
	}
}

// FuzzQuantScanVerdict fuzzes the conservative kernel against the exact
// scan: for arbitrary finite node contents and query windows, the quantised
// verdict may over-approximate but must never miss an exact intersection.
func FuzzQuantScanVerdict(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(5), 0.0, 1.0)
	f.Add(int64(2), uint8(1), uint8(64), -3.5, 3.5)
	f.Add(int64(3), uint8(3), uint8(65), 1e-12, 2e-12)
	f.Add(int64(4), uint8(2), uint8(1), -1e15, 1e15)
	f.Add(int64(5), uint8(2), uint8(9), 7.0, 7.0) // degenerate query
	f.Fuzz(func(t *testing.T, seed int64, dimsRaw, countRaw uint8, qa, qb float64) {
		if math.IsNaN(qa) || math.IsInf(qa, 0) || math.IsNaN(qb) || math.IsInf(qb, 0) {
			t.Skip("query coordinates must be finite, like Search's Valid() gate")
		}
		dims := 1 + int(dimsRaw)%3
		count := 1 + int(countRaw)%70
		rng := rand.New(rand.NewSource(seed))
		rects := make([]geom.Rect, count)
		for i := range rects {
			lo := make(geom.Point, dims)
			hi := make(geom.Point, dims)
			for d := 0; d < dims; d++ {
				a := (rng.Float64() - 0.5) * 100
				b := a + rng.Float64()*10
				if rng.Intn(4) == 0 {
					b = a // degenerate entry
				}
				lo[d], hi[d] = a, b
			}
			rects[i] = geom.Rect{Lo: lo, Hi: hi}
		}
		n := leafFromRects(rects, dims)
		qlo := math.Min(qa, qb)
		qhi := math.Max(qa, qb)
		q := geom.Rect{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
		for d := 0; d < dims; d++ {
			jitter := (rng.Float64() - 0.5) * 10
			q.Lo[d] = qlo + jitter
			q.Hi[d] = qhi + jitter
		}
		got := quantVerdicts(n, dims, q)
		for i := range rects {
			if rects[i].Intersects(q) && !got[i] {
				t.Fatalf("missed entry %d (%v) for query %v (node MBB %v)", i, rects[i], q, n.qmbb)
			}
		}
	})
}
