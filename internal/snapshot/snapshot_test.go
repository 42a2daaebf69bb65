package snapshot

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

func buildTree(t *testing.T, n int) (*rtree.Tree, *clipindex.Index, Meta) {
	t.Helper()
	cfg := rtree.DefaultConfig(2, rtree.RRStar)
	tree := rtree.MustNew(cfg)
	rng := rand.New(rand.NewSource(7))
	items := make([]rtree.Item, n)
	for i := range items {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		items[i] = rtree.Item{Object: rtree.ObjectID(i), Rect: geom.R(x, y, x+rng.Float64()*10, y+rng.Float64()*10)}
	}
	if err := tree.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	params := core.Params{K: 8, Tau: 0.025, Method: core.MethodStairline}
	idx, err := clipindex.New(tree, params)
	if err != nil {
		t.Fatal(err)
	}
	eff := tree.Config()
	meta := Meta{
		Dims: eff.Dims, Variant: eff.Variant,
		MaxEntries: eff.MaxEntries, MinEntries: eff.MinEntries,
		HilbertBits: eff.HilbertBits, Universe: eff.Universe,
		ClipMethod: ClipStairline, MaxClipPoints: params.K, ClipTau: params.Tau,
	}
	return tree, idx, meta
}

func TestWriteReadRoundTrip(t *testing.T) {
	tree, idx, meta := buildTree(t, 500)
	store := storage.NewPager(PageSizeFor(meta.MaxEntries, meta.Dims))
	if err := Write(store, tree, idx.Table(), meta); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(store)
	if err != nil {
		t.Fatal(err)
	}
	m := snap.Meta
	if m.Dims != 2 || m.Variant != rtree.RRStar || m.Objects != 500 ||
		m.Height != tree.Height() || m.Root != tree.RootID() {
		t.Fatalf("meta mismatch: %+v", m)
	}
	if m.MaxClipPoints != 8 || m.ClipTau != 0.025 || m.ClipMethod != ClipStairline {
		t.Fatalf("clip params lost: %+v", m)
	}
	if !m.Universe.Equal(tree.Config().Universe) {
		t.Fatal("universe not preserved")
	}
	// Scores are construction-time ordering hints and not persisted; the
	// persisted coordinates, masks, and their order must match exactly.
	if len(snap.Table) != len(idx.Table()) {
		t.Fatalf("clip table has %d nodes, want %d", len(snap.Table), len(idx.Table()))
	}
	for id, want := range idx.Table() {
		got := snap.Table[id]
		if len(got) != len(want) {
			t.Fatalf("node %d has %d clip points, want %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i].Mask != want[i].Mask || !reflect.DeepEqual(got[i].Coord, want[i].Coord) {
				t.Fatalf("node %d clip point %d differs: %v vs %v", id, i, got[i], want[i])
			}
		}
	}
	dir, leaf := tree.NodeCount()
	if len(snap.Pages) != dir+leaf {
		t.Fatalf("page index has %d entries, want %d", len(snap.Pages), dir+leaf)
	}

	loaded, err := snap.LoadTree(store)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != tree.Len() || loaded.Height() != tree.Height() {
		t.Fatalf("loaded %d/%d, want %d/%d", loaded.Len(), loaded.Height(), tree.Len(), tree.Height())
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}

	lazy, err := snap.OpenTree(store, true)
	if err != nil {
		t.Fatal(err)
	}
	if !lazy.ReadOnly() {
		t.Fatal("lazy tree must be read-only")
	}
	q := geom.R(100, 100, 400, 400)
	var a, b []rtree.ObjectID
	tree.Search(q, func(id rtree.ObjectID, _ geom.Rect) bool { a = append(a, id); return true })
	lazy.Search(q, func(id rtree.ObjectID, _ geom.Rect) bool { b = append(b, id); return true })
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("lazy search differs: %d vs %d results", len(a), len(b))
	}
	if err := lazy.Err(); err != nil {
		t.Fatal(err)
	}
	if err := lazy.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndStreamRoundTrip(t *testing.T) {
	cfg := rtree.DefaultConfig(3, rtree.Hilbert)
	tree := rtree.MustNew(cfg)
	eff := tree.Config()
	meta := Meta{
		Dims: 3, Variant: rtree.Hilbert,
		MaxEntries: eff.MaxEntries, MinEntries: eff.MinEntries,
		HilbertBits: eff.HilbertBits, Universe: eff.Universe,
		ClipMethod: ClipNone,
	}
	var buf bytes.Buffer
	if err := SaveTo(&buf, tree, nil, meta); err != nil {
		t.Fatal(err)
	}
	snap, store, err := LoadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Root != rtree.InvalidNode || snap.Meta.Objects != 0 || len(snap.Pages) != 0 {
		t.Fatalf("empty snapshot decoded wrong: %+v", snap.Meta)
	}
	loaded, err := snap.LoadTree(store)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 0 || loaded.Height() != 0 {
		t.Fatal("loaded empty tree not empty")
	}
	lazy, err := snap.OpenTree(store, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lazy.Insert(geom.R(0, 0, 0, 1, 1, 1), 1); err != rtree.ErrReadOnly {
		t.Fatalf("insert into lazily opened tree: %v, want ErrReadOnly", err)
	}
	if lazy.Count(geom.R(0, 0, 0, 1, 1, 1)) != 0 {
		t.Fatal("empty lazy tree found objects")
	}
}

func TestFileRoundTrip(t *testing.T) {
	tree, idx, meta := buildTree(t, 300)
	path := filepath.Join(t.TempDir(), "snap.cbb")
	if err := WriteFile(path, tree, idx.Table(), meta); err != nil {
		t.Fatal(err)
	}
	snap, fp, err := OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	lazy, err := snap.OpenTree(fp, true)
	if err != nil {
		t.Fatal(err)
	}
	reads0, _ := fp.DiskStats()
	q := geom.R(0, 0, 300, 300)
	want := tree.Count(q)
	got := lazy.Count(q)
	if got != want {
		t.Fatalf("file-backed count %d, want %d", got, want)
	}
	reads1, _ := fp.DiskStats()
	if reads1 <= reads0 {
		t.Fatal("query did not read pages from the file")
	}
	if err := lazy.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	tree, idx, meta := buildTree(t, 200)
	var buf bytes.Buffer
	if err := SaveTo(&buf, tree, idx.Table(), meta); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Any single corrupted byte in the superblock page must be caught by a
	// page or superblock checksum.
	for _, off := range []int{32 + 16, 32 + 16 + 4, 32 + 16 + 30, 32 + 16 + 100} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0xff
		if _, _, err := LoadFrom(bytes.NewReader(bad)); err == nil {
			t.Errorf("corruption at byte %d not detected", off)
		}
	}
	// Truncations anywhere must error, never panic.
	for _, n := range []int{0, 10, 31, 32, 100, len(raw) / 2, len(raw) - 1} {
		if _, _, err := LoadFrom(bytes.NewReader(raw[:n])); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}
	// Garbage input.
	if _, _, err := LoadFrom(bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestWriteRejectsMismatchedMeta(t *testing.T) {
	tree, idx, meta := buildTree(t, 50)
	bad := meta
	bad.Dims = 3
	store := storage.NewPager(PageSizeFor(meta.MaxEntries, meta.Dims))
	if err := Write(store, tree, idx.Table(), bad); err == nil {
		t.Error("dims mismatch accepted")
	}
	store2 := storage.NewPager(PageSizeFor(meta.MaxEntries, meta.Dims))
	if _, err := store2.Allocate(storage.KindLeaf); err != nil {
		t.Fatal(err)
	}
	if err := Write(store2, tree, idx.Table(), meta); err == nil {
		t.Error("non-empty store accepted")
	}
}
