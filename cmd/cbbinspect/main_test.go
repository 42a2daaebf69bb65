package main

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cbb"
	"cbb/internal/clipindex"
	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

// cbbinspect rewrites snapshot files in place, so every step of this table
// runs the inspector's own entry points on one file and then holds the file
// to the same four checks: it opens, SearchAll over the universe returns the
// objects the step should leave (the same ones, or those plus a committed
// WAL's), no write-ahead log is left beside it, and -verify finds every page
// referenced exactly once.
func TestInspectorRewritesInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.cbb")
	universe := cbb.R(-1, -1, 1101, 1101)
	items, extra := testItems(600, 1), testItems(90, 2)
	for i := range extra {
		extra[i].Object += 10000
	}
	tree, err := cbb.New(cbb.Options{Dims: 2, Universe: universe, Clipping: cbb.ClipStairline})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if err := tree.WriteSnapshot(path, cbb.SnapshotV1); err != nil {
		t.Fatal(err)
	}
	want := sortedItems(tree.SearchAll(universe))

	for _, step := range []struct {
		name string
		run  func() error
		adds []cbb.Item // objects the step commits
	}{
		{"inspect -verify", func() error { return inspectSnapshot(path, 32, 1, true) }, nil},
		{"rewrite v2 in place", func() error { return transcodeSnapshot(path, "", "v2", false) }, nil},
		{"rewrite v1 in place", func() error { return transcodeSnapshot(path, "", "v1", false) }, nil},
		{"compact over a committed WAL", func() error {
			if err := crashAfterWAL(path, extra); err != nil {
				return err
			}
			if _, err := os.Stat(storage.WALPathFor(path)); err != nil {
				return err // the WAL must be pending for this step to mean anything
			}
			return transcodeSnapshot(path, "", "", true)
		}, extra},
	} {
		t.Run(step.name, func(t *testing.T) {
			if err := step.run(); err != nil {
				t.Fatal(err)
			}
			want = sortedItems(append(want, step.adds...))
			if _, err := os.Stat(storage.WALPathFor(path)); !os.IsNotExist(err) {
				t.Errorf("a write-ahead log is left beside the file (stat: %v)", err)
			}
			back, err := cbb.OpenReadOnly(path)
			if err != nil {
				t.Fatal(err)
			}
			got := sortedItems(back.SearchAll(universe))
			if err := back.Close(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("SearchAll returns %d objects, want %d", len(got), len(want))
			}
			if err := inspectSnapshot(path, 32, 1, true); err != nil {
				t.Fatalf("inspect -verify: %v", err)
			}
		})
	}
}

// crashAfterWAL inserts items into the snapshot at path and flushes them
// until the write-ahead log is durable, then abandons the writer: the file
// is the pre-commit one and the log holds the whole commit.
func crashAfterWAL(path string, items []cbb.Item) error {
	crash := errors.New("crash after the WAL sync")
	c := &crashFS{err: crash}
	defer storage.UseFS(func(base storage.FS) storage.FS { c.FS = base; return c })()
	snap, fp, err := snapshot.OpenFile(path, false)
	if err != nil {
		return err
	}
	tree, err := snap.OpenTree(fp, false)
	if err != nil {
		return err
	}
	params, _ := snap.Meta.ClipParams()
	idx, err := clipindex.Restore(tree, params, snap.Table)
	if err != nil {
		return err
	}
	for _, it := range items {
		if _, err := idx.Insert(it.Rect, it.Object); err != nil {
			return err
		}
	}
	if err := snapshot.Rewrite(fp, tree, idx, snap.Meta); err != nil {
		return err
	}
	if err := fp.CommitJournal(); !errors.Is(err, crash) {
		return err
	}
	return nil
}

// crashFS fails the first page-file write after a write-ahead log's fsync
// with err, once: a process dying once its commit is durable.
type crashFS struct {
	storage.FS
	err          error
	armed, fired bool
}

func (c *crashFS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return crashFile{f, c, strings.HasSuffix(name, storage.WALSuffix)}, nil
}

type crashFile struct {
	storage.File
	fs  *crashFS
	wal bool
}

func (f crashFile) Sync() error {
	f.fs.armed = f.fs.armed || f.wal
	return f.File.Sync()
}

func (f crashFile) WriteAt(b []byte, off int64) (int, error) {
	if c := f.fs; c.armed && !f.wal && !c.fired {
		c.fired = true
		return 0, c.err
	}
	return f.File.WriteAt(b, off)
}

// testItems returns n deterministic small rectangles inside the test
// universe, with ids 0..n-1.
func testItems(n int, seed uint64) []cbb.Item {
	items := make([]cbb.Item, n)
	x := seed
	next := func() float64 { // a fixed LCG: the same items on every run
		x = x*6364136223846793005 + 1442695040888963407
		return float64(x>>11) / (1 << 53) * 1000
	}
	for i := range items {
		lx, ly := next(), next()
		items[i] = cbb.Item{Object: cbb.ObjectID(i), Rect: cbb.R(lx, ly, lx+next()/100, ly+next()/100)}
	}
	return items
}

// sortedItems orders items by object id.
func sortedItems(items []cbb.Item) []cbb.Item {
	out := slices.Clone(items)
	slices.SortFunc(out, func(a, b cbb.Item) int { return int(a.Object - b.Object) })
	return out
}
