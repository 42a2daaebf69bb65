package rtree

import (
	"math/rand"
	"testing"

	"cbb/internal/geom"
	"cbb/internal/storage"
)

func TestEncodeDecodeNode(t *testing.T) {
	n := &node{id: 7, leaf: true, level: 0, parent: InvalidNode}
	n.setEntries([]Entry{
		{Rect: geom.R(1, 2, 3, 4), Object: 42, Child: InvalidNode},
		{Rect: geom.R(-5, 0, 5, 10), Object: 43, Child: InvalidNode},
	}, 2)
	buf := encodeNode(n, 2)
	back, err := decodeNode(buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if back.id != 7 || !back.leaf || back.level != 0 || back.count() != 2 {
		t.Fatalf("decoded node header wrong: %+v", back)
	}
	for i := range n.refs {
		if !back.rect(i, 2).Equal(n.rect(i, 2)) || back.object(i) != n.object(i) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, back.entry(i, 2), n.entry(i, 2))
		}
	}
}

func TestEncodeDecodeDirectoryNode(t *testing.T) {
	n := &node{id: 3, leaf: false, level: 2, parent: InvalidNode}
	n.setEntries([]Entry{
		{Rect: geom.R(0, 0, 0, 1, 1, 1), Child: 11},
		{Rect: geom.R(2, 2, 2, 3, 3, 3), Child: 12},
	}, 3)
	buf := encodeNode(n, 3)
	back, err := decodeNode(buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if back.leaf || back.level != 2 {
		t.Fatal("directory header wrong")
	}
	if back.child(0) != 11 || back.child(1) != 12 {
		t.Fatal("child references lost")
	}
}

func TestDecodeNodeErrors(t *testing.T) {
	if _, err := decodeNode(nil, 2); err == nil {
		t.Error("empty buffer must fail")
	}
	n := &node{id: 1, leaf: true}
	n.setEntries([]Entry{{Rect: geom.R(0, 0, 1, 1), Object: 1, Child: InvalidNode}}, 2)
	buf := encodeNode(n, 2)
	if _, err := decodeNode(buf[:len(buf)-4], 2); err == nil {
		t.Error("truncated buffer must fail")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, v := range AllVariants() {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			cfg := smallConfig(2, v)
			tr := MustNew(cfg)
			var items []Item
			for i := 0; i < 400; i++ {
				r := randRect(rng, 2, 500, 10)
				items = append(items, Item{Object: ObjectID(i), Rect: r})
				_, _ = tr.Insert(r, ObjectID(i))
			}
			pager := storage.NewPager(storage.DefaultPageSize)
			pages, err := tr.Save(pager, CodecV1)
			if err != nil {
				t.Fatal(err)
			}
			if len(pages) == 0 || pages[tr.RootID()] == storage.InvalidPage {
				t.Fatal("Save produced no pages")
			}
			back, err := Load(cfg, pager, pages, tr.RootID(), CodecV1)
			if err != nil {
				t.Fatal(err)
			}
			if back.Len() != tr.Len() || back.Height() != tr.Height() {
				t.Fatalf("loaded tree shape differs: len %d vs %d, height %d vs %d",
					back.Len(), tr.Len(), back.Height(), tr.Height())
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("loaded tree invalid: %v", err)
			}
			// Queries agree between original and loaded trees.
			for q := 0; q < 25; q++ {
				query := randRect(rng, 2, 500, 60)
				if tr.Count(query) != back.Count(query) {
					t.Fatalf("query results differ after round trip")
				}
			}
		})
	}
}

func TestSaveEmptyTreeFails(t *testing.T) {
	tr := MustNew(smallConfig(2, Quadratic))
	if _, err := tr.Save(storage.NewPager(0), CodecV1); err == nil {
		t.Error("saving an empty tree should fail")
	}
}

func TestLoadErrors(t *testing.T) {
	cfg := smallConfig(2, Quadratic)
	tr := MustNew(cfg)
	for i := 0; i < 50; i++ {
		_, _ = tr.Insert(geom.R(float64(i), 0, float64(i)+1, 1), ObjectID(i))
	}
	pager := storage.NewPager(0)
	pages, err := tr.Save(pager, CodecV1)
	if err != nil {
		t.Fatal(err)
	}
	// Root without a page.
	if _, err := Load(cfg, pager, pages, NodeID(99999), CodecV1); err == nil {
		t.Error("bogus root must fail")
	}
	// Page map referencing a missing page.
	broken := map[NodeID]storage.PageID{NodeID(0): storage.PageID(99999)}
	if _, err := Load(cfg, pager, broken, NodeID(0), CodecV1); err == nil {
		t.Error("missing pages must fail")
	}
}

func TestSavePageKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tr := MustNew(smallConfig(2, RStar))
	for i := 0; i < 300; i++ {
		_, _ = tr.Insert(randRect(rng, 2, 500, 10), ObjectID(i))
	}
	pager := storage.NewPager(0)
	if _, err := tr.Save(pager, CodecV1); err != nil {
		t.Fatal(err)
	}
	usage := pager.Usage()
	dir, leaf := tr.NodeCount()
	if usage.Pages[storage.KindLeaf] != leaf || usage.Pages[storage.KindDirectory] != dir {
		t.Fatalf("page kinds wrong: %+v, want %d dir %d leaf", usage.Pages, dir, leaf)
	}
}
