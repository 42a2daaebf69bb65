package snapshot

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cbb/internal/clipindex"
	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// transcodeQueries is a deterministic query batch over the buildTree universe.
func transcodeQueries(n int) []geom.Rect {
	rng := rand.New(rand.NewSource(99))
	qs := make([]geom.Rect, n)
	for i := range qs {
		x, y := rng.Float64()*900, rng.Float64()*900
		qs[i] = geom.R(x, y, x+rng.Float64()*80, y+rng.Float64()*80)
	}
	return qs
}

// queryFile opens a snapshot read-only (any format) and runs the batch
// through the clipped index, returning sorted result ids per query.
func queryFile(t *testing.T, path string, qs []geom.Rect) [][]rtree.ObjectID {
	t.Helper()
	snap, fp, err := OpenFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	tree, err := snap.OpenTree(fp, true)
	if err != nil {
		t.Fatal(err)
	}
	params, ok := snap.Meta.ClipParams()
	if !ok {
		t.Fatalf("%s: no clip table", path)
	}
	idx, err := clipindex.Restore(tree, params, snap.Table)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]rtree.ObjectID, len(qs))
	for i, q := range qs {
		idx.Search(q, func(id rtree.ObjectID, _ geom.Rect) bool {
			out[i] = append(out[i], id)
			return true
		})
		sort.Slice(out[i], func(a, b int) bool { return out[i][a] < out[i][b] })
	}
	if err := tree.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameResults(a, b [][]rtree.ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestTranscodeV1V2V1RoundTrip(t *testing.T) {
	dir := t.TempDir()
	v1, v2, back := filepath.Join(dir, "a.cbb"), filepath.Join(dir, "b.cbb"), filepath.Join(dir, "c.cbb")
	tree, idx, meta := buildTree(t, 600)
	if err := WriteFile(v1, tree, idx.Table(), meta); err != nil {
		t.Fatal(err)
	}
	qs := transcodeQueries(40)
	want := queryFile(t, v1, qs)

	if err := Transcode(v1, v2, FormatV2); err != nil {
		t.Fatal(err)
	}
	snap, fp, err := OpenFile(v2, true)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Format != FormatV2 {
		t.Fatalf("transcoded format = %d, want %d", snap.Meta.Format, FormatV2)
	}
	if snap.Meta.Objects != 600 {
		t.Fatalf("transcoded snapshot holds %d objects", snap.Meta.Objects)
	}
	fp.Close()
	if !sameResults(want, queryFile(t, v2, qs)) {
		t.Fatal("v2 snapshot returns different results than v1")
	}

	// Back to v1: dir entry rects must be restored to the exact child MBBs,
	// which is what a full materialised Validate checks.
	if err := Transcode(v2, back, FormatV1); err != nil {
		t.Fatal(err)
	}
	snap, fp, err = OpenFile(back, true)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Format != FormatV1 {
		t.Fatalf("back-transcoded format = %d, want %d", snap.Meta.Format, FormatV1)
	}
	full, err := snap.LoadTree(fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Validate(); err != nil {
		t.Fatalf("v2->v1 output violates v1 invariants: %v", err)
	}
	fp.Close()
	if !sameResults(want, queryFile(t, back, qs)) {
		t.Fatal("v1->v2->v1 round trip changed query results")
	}
}

func TestTranscodeCompactInPlace(t *testing.T) {
	dir := t.TempDir()
	v1, v2 := filepath.Join(dir, "a.cbb"), filepath.Join(dir, "b.cbb")
	tree, idx, meta := buildTree(t, 400)
	if err := WriteFile(v1, tree, idx.Table(), meta); err != nil {
		t.Fatal(err)
	}
	if err := Transcode(v1, v2, FormatV2); err != nil {
		t.Fatal(err)
	}
	qs := transcodeQueries(20)
	want := queryFile(t, v2, qs)
	before, err := os.Stat(v2)
	if err != nil {
		t.Fatal(err)
	}
	// src == dst re-compacts in place; re-quantising an already-quantised
	// grid is stable, so the size must not drift.
	if err := Transcode(v2, v2, FormatV2); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(v2)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Errorf("in-place compaction changed the size: %d -> %d", before.Size(), after.Size())
	}
	if !sameResults(want, queryFile(t, v2, qs)) {
		t.Fatal("in-place compaction changed query results")
	}
}

func TestTranscodeUnknownFormat(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "a.cbb")
	tree, idx, meta := buildTree(t, 50)
	if err := WriteFile(v1, tree, idx.Table(), meta); err != nil {
		t.Fatal(err)
	}
	if err := Transcode(v1, filepath.Join(dir, "b.cbb"), 9); err == nil {
		t.Error("unknown format must fail")
	}
}

func TestRewriteRejectsV2(t *testing.T) {
	tree, idx, meta := buildTree(t, 50)
	store := storage.NewPager(PageSizeFor(meta.MaxEntries, meta.Dims))
	if err := Write(store, tree, idx.Table(), meta); err != nil {
		t.Fatal(err)
	}
	meta.Format = FormatV2
	if err := Rewrite(store, tree, idx.Table(), meta); err == nil {
		t.Error("Rewrite must reject the read-only v2 format")
	}
}

// TestTranscodeFoldsPendingWAL crashes a journaled writer after its WAL is
// durable but before any page is applied, then transcodes the file: the
// read-only source open must fold the committed WAL in, so the output
// carries the post-commit state while the source file and WAL stay intact.
func TestTranscodeFoldsPendingWAL(t *testing.T) {
	dir := t.TempDir()
	v1, v2 := filepath.Join(dir, "a.cbb"), filepath.Join(dir, "b.cbb")
	tree, idx, meta := buildTree(t, 400)
	if err := WriteFile(v1, tree, idx.Table(), meta); err != nil {
		t.Fatal(err)
	}

	fp, err := storage.OpenFilePager(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.EnableJournal(); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(fp)
	if err != nil {
		t.Fatal(err)
	}
	wtree, err := snap.OpenTree(fp, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		if _, err := wtree.Insert(geom.R(x, y, x+5, y+5), rtree.ObjectID(400+i)); err != nil {
			t.Fatal(err)
		}
	}
	params, _ := snap.Meta.ClipParams()
	widx, err := clipindex.New(wtree, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := Rewrite(fp, wtree, widx.Table(), snap.Meta); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("crash after WAL sync")
	fp.SetCommitFailpoints(func() error { return boom }, nil)
	if err := fp.CommitJournal(); !errors.Is(err, boom) {
		t.Fatalf("commit error = %v, want injected crash", err)
	}
	// Abandon the writer without closing: the base file is pre-commit, the
	// durable WAL next to it holds the whole rewrite.
	if _, err := os.Stat(storage.WALPathFor(v1)); err != nil {
		t.Fatalf("no WAL left on disk: %v", err)
	}

	if err := Transcode(v1, v2, FormatV2); err != nil {
		t.Fatal(err)
	}
	snap2, fp2, err := OpenFile(v2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer fp2.Close()
	if snap2.Meta.Objects != 500 {
		t.Fatalf("transcode output holds %d objects, want 500 (WAL not folded in)", snap2.Meta.Objects)
	}
	if _, err := os.Stat(storage.WALPathFor(v1)); err != nil {
		t.Errorf("transcode consumed the source WAL: %v", err)
	}
}
