package cbb

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
)

// TestSnapshotBytesPinned pins the format-1 snapshot of four clipped trees —
// freshly bulk-loaded, and again after 2000 inserts and 500 deletes — to the
// SHA-256 the commit before the flat clip store produced (PR 16; the same
// program was run on both sides, and at 100k–500k objects too, see
// CHANGES.md). Node pages, clip points and their order are all in there, so
// a change to how clip points are kept, maintained or encoded that alters a
// single stored bit fails here. The data generators use floating-point
// arithmetic a compiler may fuse differently elsewhere, hence amd64 only.
func TestSnapshotBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes were recorded on amd64")
	}
	if testing.Short() {
		t.Skip("builds four 20k-object trees")
	}
	for _, c := range []struct {
		dataset       string
		method        ClipMethod
		fresh, update string
	}{
		{"axo03", ClipStairline, "d8f17b4711c48c15ae90fd95ae4c623a466381c9b9088c1d036e17771547af8a", "d926316c6de70033eee3143aa477021e1dc4afc3f52ce22daea0a0095a80273b"},
		{"rea02", ClipStairline, "2fc5425bfc4f29b2b1f6d653ef429e604dbea5c8823b48396276249904b133c2", "de67793bfb40209042f6050ee0372a466371f44c29b652403222d64c5a1be43b"},
		{"par02", ClipSkyline, "f8ca545040fc2b40c8207100e1f3b8fad42e3bab92a53e4e59a773895d48845d", "4164e911b5d2b8ce3dbb541727638fa2e967204d18493512961f73df2f15186a"},
		{"hot03", ClipStairline, "0a31a2b37a98602a55bb2a4dfc37179045690755b157d3cf392cc69e6fc905d9", "e6e8e9a0025a975b27d6f1419139178f533c47cb9c3f57e29f20e9935a127c01"},
	} {
		t.Run(c.dataset, func(t *testing.T) {
			const n = 20000
			items, uni := loadDataset(t, c.dataset, n, 42)
			tree, err := New(Options{Dims: uni.Dims(), Variant: RRStarTree, Universe: uni, Clipping: c.method})
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.BulkLoad(items); err != nil {
				t.Fatal(err)
			}
			sum := func() string {
				var buf bytes.Buffer
				if err := tree.SaveTo(&buf); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
			}
			if got := sum(); got != c.fresh {
				t.Errorf("bulk-loaded snapshot hashes to %s, pinned %s", got, c.fresh)
			}
			extra, _ := loadDataset(t, c.dataset, 2000, 43)
			for j, it := range extra {
				if err := tree.Insert(it.Rect, ObjectID(n+j)); err != nil {
					t.Fatal(err)
				}
			}
			for j := 0; j < 500; j++ {
				if _, err := tree.Delete(items[j*7].Rect, items[j*7].Object); err != nil {
					t.Fatal(err)
				}
			}
			if got := sum(); got != c.update {
				t.Errorf("snapshot after updates hashes to %s, pinned %s", got, c.update)
			}
		})
	}
}
