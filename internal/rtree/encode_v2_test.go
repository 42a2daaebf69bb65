package rtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cbb/internal/geom"
	"cbb/internal/storage"
)

// f32 rounds a coordinate to float32 precision, the precision class the leaf
// delta shift is designed for.
func f32(v float64) float64 { return float64(float32(v)) }

func randLeafV2(rng *rand.Rand, dims, count int, reduced bool) *node {
	n := &node{id: 9, leaf: true, level: 0}
	for i := 0; i < count; i++ {
		lo := make(geom.Point, dims)
		hi := make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			a := rng.Float64() * 1000
			b := a + rng.Float64()*10
			if reduced {
				a, b = f32(a), f32(b)
			}
			lo[d], hi[d] = a, b
		}
		n.appendEntry(Entry{Rect: geom.Rect{Lo: lo, Hi: hi}, Object: ObjectID(rng.Int63n(1 << 40)), Child: InvalidNode})
	}
	return n
}

func TestEncodeDecodeNodeV2LeafExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dims := range []int{1, 2, 3} {
		for _, reduced := range []bool{false, true} {
			n := randLeafV2(rng, dims, 50, reduced)
			buf, err := encodeNodeV2(n, dims)
			if err != nil {
				t.Fatal(err)
			}
			back, err := decodeNodeV2(buf, dims)
			if err != nil {
				t.Fatal(err)
			}
			if back.id != n.id || !back.leaf || back.count() != n.count() {
				t.Fatalf("dims=%d header mismatch: %+v", dims, back)
			}
			for i := range n.refs {
				for d := 0; d < dims; d++ {
					if math.Float64bits(back.rect(i, dims).Lo[d]) != math.Float64bits(n.rect(i, dims).Lo[d]) ||
						math.Float64bits(back.rect(i, dims).Hi[d]) != math.Float64bits(n.rect(i, dims).Hi[d]) {
						t.Fatalf("dims=%d entry %d not bit-identical", dims, i)
					}
				}
				if back.object(i) != n.object(i) {
					t.Fatalf("dims=%d entry %d object mismatch", dims, i)
				}
			}
		}
	}
}

func TestLeafDeltaShiftReducedPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n := randLeafV2(rng, 2, 60, true)
	buf, err := encodeNodeV2(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0]&flagV2RawLeaf != 0 {
		t.Fatal("reduced-precision leaf fell back to raw")
	}
	// float32-representable doubles carry >= 29 trailing zero mantissa bits,
	// so every bit-pattern delta shares them and the shift strips them.
	if shift := int(buf[2]); shift < 29 {
		t.Fatalf("delta shift %d, want >= 29 for float32-precision data", shift)
	}
	full := randLeafV2(rng, 2, 60, false)
	fullBuf, err := encodeNodeV2(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(len(buf) < len(fullBuf)) {
		t.Fatalf("reduced-precision leaf (%d B) not smaller than full-entropy (%d B)", len(buf), len(fullBuf))
	}
}

func TestEncodeNodeV2RawFallbackBound(t *testing.T) {
	// Adversarial leaf: coordinate bit patterns drawn uniformly from the
	// whole range make every delta ~9-10 varint bytes, past the raw layout.
	rng := rand.New(rand.NewSource(33))
	n := &node{id: 4, leaf: true, level: 0}
	for i := 0; i < 40; i++ {
		lo := geom.Pt(math.Float64frombits(rng.Uint64()>>12), math.Float64frombits(rng.Uint64()>>12))
		n.appendEntry(Entry{
			Rect:   geom.Rect{Lo: lo, Hi: lo},
			Object: ObjectID(rng.Uint64() >> 1), Child: InvalidNode,
		})
	}
	buf, err := encodeNodeV2(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if max := nodeHeaderV2Bytes + 16*2 + n.count()*EntryBytes(2); len(buf) > max {
		t.Fatalf("v2 page %d B exceeds the raw bound %d B", len(buf), max)
	}
	back, err := decodeNodeV2(buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.refs {
		if !back.rect(i, 2).Equal(n.rect(i, 2)) || back.object(i) != n.object(i) {
			t.Fatalf("raw fallback not lossless at entry %d", i)
		}
	}
}

func TestEncodeDecodeNodeV2DirConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, dims := range []int{1, 2, 3} {
		n := &node{id: 2, leaf: false, level: 1}
		for i := 0; i < 30; i++ {
			n.appendEntry(Entry{Rect: randRect(rng, dims, 900, 40), Child: NodeID(i + 10)})
		}
		mbb := n.mbb()
		buf, err := encodeNodeV2(n, dims)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeNodeV2(buf, dims)
		if err != nil {
			t.Fatal(err)
		}
		union := back.rect(0, dims)
		for i := range n.refs {
			got := back.rect(i, dims)
			if !got.ContainsRect(n.rect(i, dims)) {
				t.Fatalf("dims=%d entry %d decoded rect %v does not contain original %v", dims, i, got, n.rect(i, dims))
			}
			if !mbb.ContainsRect(got) {
				t.Fatalf("dims=%d entry %d decoded rect escapes the node MBB", dims, i)
			}
			if back.child(i) != n.child(i) {
				t.Fatalf("dims=%d entry %d child lost", dims, i)
			}
			union = union.Union(got)
		}
		// Extreme entries touch the MBB boundary, which quantises exactly:
		// the union of decoded rects must still be the exact MBB.
		if !union.Equal(mbb) {
			t.Fatalf("dims=%d decoded union %v != exact MBB %v", dims, union, mbb)
		}
	}
}

func TestDecodeNodeV2Errors(t *testing.T) {
	if _, err := decodeNodeV2(nil, 2); err == nil {
		t.Error("empty buffer must fail")
	}
	n := randLeafV2(rand.New(rand.NewSource(35)), 2, 20, true)
	buf, err := encodeNodeV2(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeNodeV2(buf[:len(buf)-3], 2); err == nil {
		t.Error("truncated leaf stream must fail")
	}
	bad := append([]byte(nil), buf...)
	bad[2] = 77 // implausible delta shift
	if _, err := decodeNodeV2(bad, 2); err == nil {
		t.Error("leaf delta shift > 63 must fail")
	}
	dir := &node{id: 1, leaf: false, level: 1}
	dir.appendEntry(Entry{Rect: geom.R(0, 0, 1, 1), Child: 5})
	dbuf, err := encodeNodeV2(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	dbad := append([]byte(nil), dbuf...)
	dbad[2] = 8 // unsupported quantisation width
	if _, err := decodeNodeV2(dbad, 2); err == nil {
		t.Error("unsupported directory quantisation must fail")
	}
	if _, err := decodeNodeV2(dbuf[:len(dbuf)-2], 2); err == nil {
		t.Error("truncated directory page must fail")
	}
}

func TestNodePageMBB(t *testing.T) {
	n := randLeafV2(rand.New(rand.NewSource(36)), 3, 25, false)
	buf, err := encodeNodeV2(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	id, mbb, err := NodePageMBB(buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if id != n.id || !mbb.Equal(n.mbb()) {
		t.Fatalf("NodePageMBB = (%d, %v), want (%d, %v)", id, mbb, n.id, n.mbb())
	}
	if _, _, err := NodePageMBB(buf[:10], 3); err == nil {
		t.Error("short buffer must fail")
	}
}

func TestTranscodeNodePageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	dims := 2
	leaf := randLeafV2(rng, dims, 40, true)
	v1buf := encodeNode(leaf, dims)
	v2buf, err := TranscodeNodePage(v1buf, dims, CodecV1, CodecV2, nil)
	if err != nil {
		t.Fatal(err)
	}
	backBuf, err := TranscodeNodePage(v2buf, dims, CodecV2, CodecV1, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeNode(backBuf, dims)
	if err != nil {
		t.Fatal(err)
	}
	for i := range leaf.refs {
		if !back.rect(i, dims).Equal(leaf.rect(i, dims)) || back.object(i) != leaf.object(i) {
			t.Fatalf("leaf entry %d changed across v1->v2->v1", i)
		}
	}

	// Directory round trip needs the child-MBB fixup to restore exactness.
	dir := &node{id: 3, leaf: false, level: 1}
	children := map[NodeID]geom.Rect{}
	for i := 0; i < 20; i++ {
		r := randRect(rng, dims, 500, 25)
		dir.appendEntry(Entry{Rect: r, Child: NodeID(100 + i)})
		children[NodeID(100+i)] = r
	}
	dv1 := encodeNode(dir, dims)
	dv2, err := TranscodeNodePage(dv1, dims, CodecV1, CodecV2, nil)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(id NodeID) (geom.Rect, bool) { r, ok := children[id]; return r, ok }
	dback, err := TranscodeNodePage(dv2, dims, CodecV2, CodecV1, lookup)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := decodeNode(dback, dims)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dir.refs {
		if !dn.rect(i, dims).Equal(dir.rect(i, dims)) {
			t.Fatalf("dir entry %d not restored exactly: %v vs %v", i, dn.rect(i, dims), dir.rect(i, dims))
		}
	}
}

func TestSaveLoadRoundTripV2(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	cfg := smallConfig(2, RStar)
	tr := MustNew(cfg)
	for i := 0; i < 500; i++ {
		r := randRect(rng, 2, 500, 10)
		r.Lo[0], r.Lo[1] = f32(r.Lo[0]), f32(r.Lo[1])
		r.Hi[0], r.Hi[1] = f32(r.Hi[0]), f32(r.Hi[1])
		if _, err := tr.Insert(r, ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	need, err := tr.MaxEncodedNodeBytes(CodecV2)
	if err != nil {
		t.Fatal(err)
	}
	pager := storage.NewImage(need)
	pages, err := tr.Save(pager, CodecV2)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(cfg, pager, pages, tr.RootID(), CodecV2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("v2-loaded tree invalid: %v", err)
	}
	if back.Len() != tr.Len() || back.Height() != tr.Height() {
		t.Fatal("v2 round trip changed tree shape")
	}
	for q := 0; q < 50; q++ {
		query := randRect(rng, 2, 500, 60)
		if tr.Count(query) != back.Count(query) {
			t.Fatalf("query %d differs on v2-loaded tree", q)
		}
	}
}

// TestV2LoadedDirectoryRequantisedOnTouch pins that a directory node of a
// v2-loaded tree keeps the planes it adopted from its page until a write
// touches it, and then holds the planes a whole re-quantisation of its decoded
// boxes gives — the planes a later v2 Save writes back (encodeNodeV2 reuses
// them). Inserts inside the tree's extent keep most directory MBBs where they
// were, the case in which a touch of an in-memory node rewrites just the
// changed slots; deletes run the condense path.
func TestV2LoadedDirectoryRequantisedOnTouch(t *testing.T) {
	for _, v := range AllVariants() {
		rng := rand.New(rand.NewSource(41))
		cfg := smallConfig(2, v)
		tr := MustNew(cfg)
		var rects []geom.Rect
		for i := 0; i < 600; i++ {
			rects = append(rects, randRect(rng, 2, 500, 10))
			if _, err := tr.Insert(rects[i], ObjectID(i)); err != nil {
				t.Fatal(err)
			}
		}
		need, err := tr.MaxEncodedNodeBytes(CodecV2)
		if err != nil {
			t.Fatal(err)
		}
		pager := storage.NewImage(need)
		pages, err := tr.Save(pager, CodecV2)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Load(cfg, pager, pages, tr.RootID(), CodecV2, nil)
		if err != nil {
			t.Fatal(err)
		}
		adopted := map[NodeID][]uint64{}
		for _, n := range dirNodes(back) {
			if n != nil && !n.leaf {
				adopted[n.id] = slices.Clone(n.qplanes)
			}
		}
		touched := 0
		for i := 0; i < 300; i++ {
			var err error
			if i%3 == 2 {
				_, err = back.Delete(rects[i], ObjectID(i))
			} else {
				_, err = back.Insert(randRect(rng, 2, 490, 10), ObjectID(1000+i))
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range dirNodes(back) {
				if n == nil || n.leaf || slices.Equal(n.qplanes, adopted[n.id]) {
					continue
				}
				want := &node{boxes: n.boxes, refs: n.refs}
				want.syncDerived(2)
				if !slicesEqualBits(n.qmbb, want.qmbb) || !slices.Equal(n.qplanes, want.qplanes) {
					t.Fatalf("%v, insert %d: directory %d holds planes %x over %v; re-quantised whole they are %x over %v",
						v, i, n.id, n.qplanes, n.qmbb, want.qplanes, want.qmbb)
				}
				touched++
			}
		}
		if touched == 0 {
			t.Fatalf("%v: no directory node was touched", v)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}
