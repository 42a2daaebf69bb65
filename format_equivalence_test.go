package cbb

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"cbb/internal/storage"
)

// openMmapOrSkip opens a snapshot via OpenMmap, skipping on platforms whose
// build falls back to the mmap stub.
func openMmapOrSkip(t *testing.T, path string) *Tree {
	t.Helper()
	tree, err := OpenMmap(path)
	if errors.Is(err, storage.ErrMmapUnsupported) {
		t.Skip("mmap unsupported on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// assertSameAnswers checks that two trees agree bit-for-bit on every query
// answer: SearchAll results including order, and nearest-neighbour results
// including distances. Unlike assertTreesEqual it deliberately does not
// compare structural stats — a v2-decoded tree holds conservatively expanded
// directory rects, so only the ANSWERS are required to be identical.
func assertSameAnswers(t *testing.T, label string, want, got *Tree, queries []Rect, probes []Point) {
	t.Helper()
	if want.Len() != got.Len() || want.Height() != got.Height() {
		t.Fatalf("%s: shape differs: %d/%d vs %d/%d", label, want.Len(), want.Height(), got.Len(), got.Height())
	}
	for i, q := range queries {
		wr, gr := want.SearchAll(q), got.SearchAll(q)
		if !reflect.DeepEqual(wr, gr) {
			t.Fatalf("%s: query %d: results differ (%d vs %d, or order/rects)", label, i, len(wr), len(gr))
		}
	}
	for i, p := range probes {
		wn, gn := want.NearestNeighbors(5, p), got.NearestNeighbors(5, p)
		if !reflect.DeepEqual(wn, gn) {
			t.Fatalf("%s: kNN probe %d differs", label, i)
		}
	}
	if err := got.Err(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// nnProbes builds a deterministic point batch in d dimensions.
func nnProbes(d, n int, seed int64) []Point {
	qs := corpusQueries(d, n, seed)
	ps := make([]Point, n)
	for i := range ps {
		ps[i] = qs[i].Lo
	}
	return ps
}

// TestFormatEquivalenceMatrix is the acceptance test of the compressed v2
// format: across dims 1–3 and all three clip methods, a tree served from a
// v2 snapshot — whether written directly, transcoded from v1, read through
// the pager, or read through mmap — must answer every query bit-identically
// to the v1 original. Conservative directory quantisation may add node
// visits, never results.
func TestFormatEquivalenceMatrix(t *testing.T) {
	dir := t.TempDir()
	for d := 1; d <= 3; d++ {
		for _, m := range []ClipMethod{ClipStairline, ClipSkyline, ClipNone} {
			t.Run(fmt.Sprintf("%dd/%v", d, m), func(t *testing.T) {
				orig, err := New(Options{Dims: d, Variant: RRStarTree, Clipping: m})
				if err != nil {
					t.Fatal(err)
				}
				if err := orig.BulkLoad(corpusItems(d, 600, 17)); err != nil {
					t.Fatal(err)
				}
				queries := corpusQueries(d, 20, 19)
				probes := nnProbes(d, 8, 23)

				base := filepath.Join(dir, fmt.Sprintf("eq-%d-%v", d, m))
				v1, v2, v2t := base+"-v1.cbb", base+"-v2.cbb", base+"-v2t.cbb"
				if err := orig.WriteSnapshot(v1, SnapshotV1); err != nil {
					t.Fatal(err)
				}
				if err := orig.WriteSnapshot(v2, SnapshotV2); err != nil {
					t.Fatal(err)
				}
				if err := TranscodeSnapshot(v1, v2t, SnapshotV2); err != nil {
					t.Fatal(err)
				}

				for _, tc := range []struct {
					label string
					open  func() (*Tree, error)
				}{
					{"v1+pager", func() (*Tree, error) { return OpenReadOnly(v1) }},
					{"v2+pager", func() (*Tree, error) { return OpenReadOnly(v2) }},
					{"v2transcoded+pager", func() (*Tree, error) { return OpenReadOnly(v2t) }},
					{"v2+mmap", func() (*Tree, error) { return OpenMmap(v2) }},
					{"v2+load", func() (*Tree, error) {
						var buf bytes.Buffer
						if err := orig.SaveToFormat(&buf, SnapshotV2); err != nil {
							return nil, err
						}
						return Load(bytes.NewReader(buf.Bytes()))
					}},
				} {
					got, err := tc.open()
					if errors.Is(err, storage.ErrMmapUnsupported) {
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", tc.label, err)
					}
					assertSameAnswers(t, tc.label, orig, got, queries, probes)
					// Conservative directory decode may add a few leaf
					// visits, never remove one.
					if want, io := rangeLeafReads(orig, queries), rangeLeafReads(got, queries); io < want || io > want+want/20+1 {
						t.Errorf("%s: %d leaf reads for the queries, the original %d", tc.label, io, want)
					}
					got.Close()
				}

				// A v2 file opened via Open degrades to read-only instead of
				// failing: compressed pages cannot be rewritten in place.
				rw, err := Open(v2)
				if err != nil {
					t.Fatal(err)
				}
				defer rw.Close()
				if !rw.ReadOnly() {
					t.Error("Open on a v2 snapshot must degrade to read-only")
				}
				if err := rw.Insert(queries[0], 999999); !errors.Is(err, ErrReadOnly) {
					t.Errorf("Insert on v2-opened tree = %v, want ErrReadOnly", err)
				}
			})
		}
	}
}

// TestMmapPagerEquivalenceWALPending crashes a writer after its WAL is
// durable but before the pages are applied, then serves the file through
// mmap and through the pager: both must fold the committed WAL in and agree
// on every answer. The mmap open is taken first — it never writes, so the
// WAL must still be on disk afterwards for the pager open to recover.
func TestMmapPagerEquivalenceWALPending(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pending.cbb")
	orig, err := New(Options{Dims: 2, Variant: RRStarTree, Clipping: ClipStairline})
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.BulkLoad(corpusItems(2, 800, 29)); err != nil {
		t.Fatal(err)
	}
	if err := orig.WriteSnapshot(path, SnapshotV1); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("crash after WAL sync")
	crashAfterWAL(t, 0, boom)
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	extra := corpusItems(2, 120, 31)
	for i, it := range extra {
		if err := w.Insert(it.Rect, ObjectID(10000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); !errors.Is(err, boom) {
		t.Fatalf("flush error = %v, want injected crash", err)
	}
	// Abandon the writer: the base file is pre-commit, the WAL holds the
	// whole flush.

	mm := openMmapOrSkip(t, path)
	defer mm.Close()
	if mm.Len() != 920 {
		t.Fatalf("mmap open sees %d objects, want 920 (WAL not folded in)", mm.Len())
	}
	queries := corpusQueries(2, 25, 37)
	mmResults := make([][]Item, len(queries))
	for i, q := range queries {
		mmResults[i] = mm.SearchAll(q)
	}

	ro, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.Len() != 920 {
		t.Fatalf("pager open sees %d objects, want 920", ro.Len())
	}
	for i, q := range queries {
		if !reflect.DeepEqual(mmResults[i], ro.SearchAll(q)) {
			t.Fatalf("query %d: mmap and pager disagree on a WAL-pending file", i)
		}
	}
}

// rangeLeafReads is the leaf reads a batch of range queries charges a tree.
func rangeLeafReads(tree *Tree, queries []Rect) int64 {
	tree.ResetIOStats()
	for _, q := range queries {
		tree.Count(q)
	}
	return tree.IOStats().LeafReads
}
