package cbb

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// A snapshot write encodes its node pages on GOMAXPROCS workers, a window of
// nodes at a time, while one goroutine allocates and writes the pages in walk
// order; none of it may show in the file. A 2-D and a 3-D clipped tree,
// written as v1 and as v2, and a v1 file transcoded to v2, give the same
// bytes under 1, 2 and 4 procs. Both trees have more than two windows of
// nodes (encodeWindow is 256), so the window boundaries are crossed.
func TestWriteSnapshotIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, in := range []struct {
		dataset string
		n       int
	}{{"rea02", 60000}, {"axo03", 40000}} {
		items, uni := loadDataset(t, in.dataset, in.n, 42)
		tree, err := New(Options{Dims: uni.Dims(), Universe: uni})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
		if st := tree.tree.Stats(); st.DirNodes+st.LeafNodes <= 512 {
			t.Fatalf("%s: %d nodes, want more than two encoding windows", in.dataset, st.DirNodes+st.LeafNodes)
		}
		files := func(procs int) map[string][]byte {
			runtime.GOMAXPROCS(procs)
			dir := t.TempDir()
			path := func(name string) string { return filepath.Join(dir, name) }
			if err := tree.WriteSnapshot(path("v1"), SnapshotV1); err != nil {
				t.Fatal(err)
			}
			if err := tree.WriteSnapshot(path("v2"), SnapshotV2); err != nil {
				t.Fatal(err)
			}
			if err := TranscodeSnapshot(path("v1"), path("v1to2"), SnapshotV2); err != nil {
				t.Fatal(err)
			}
			out := map[string][]byte{}
			for _, name := range []string{"v1", "v2", "v1to2"} {
				b, err := os.ReadFile(path(name))
				if err != nil {
					t.Fatal(err)
				}
				out[name] = b
			}
			return out
		}
		want := files(1)
		for _, procs := range []int{2, 4} {
			got := files(procs)
			for name, b := range want {
				if !bytes.Equal(got[name], b) {
					t.Errorf("%s %s: the file written under GOMAXPROCS=%d differs from the one written under 1 (%d vs %d bytes)", in.dataset, name, procs, len(got[name]), len(b))
				}
			}
		}
	}
}
