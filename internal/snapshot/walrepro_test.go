package snapshot

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cbb/internal/clipindex"
	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// Repro: in-place Transcode (src == dst) leaves the pre-compaction WAL next
// to the freshly written file; a later writable open replays it over the new
// pages.
func TestTranscodeInPlaceStaleWAL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.cbb")
	tree, idx, meta := buildTree(t, 400)
	if err := WriteFile(path, tree, idx, meta); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("crash after WAL sync")
	restore := crashAfterWAL(t, 0, boom)
	fp, err := storage.OpenFilePager(path)
	if err != nil {
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
	if err := Rewrite(fp, wtree, widx, snap.Meta); err != nil {
		t.Fatal(err)
	}
	if err := fp.CommitJournal(); !errors.Is(err, boom) {
		t.Fatalf("commit error = %v, want injected crash", err)
	}
	restore()
	if _, err := os.Stat(storage.WALPathFor(path)); err != nil {
		t.Fatalf("no WAL left on disk: %v", err)
	}

	// In-place compaction, same format: advertised as "srcPath == dstPath
	// compacts a snapshot in place ... any WAL is absorbed".
	if err := Transcode(path, path, FormatV1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(storage.WALPathFor(path)); err == nil {
		t.Logf("stale WAL still present next to the compacted file")
	}

	// A later writable open replays the stale WAL over the compacted file.
	fp2, err := storage.OpenFilePager(path)
	if err != nil {
		t.Fatalf("writable reopen after in-place compaction: %v", err)
	}
	defer fp2.Close()
	snap2, err := Read(fp2)
	if err != nil {
		t.Fatalf("reading snapshot after reopen: %v", err)
	}
	t2, err := snap2.OpenTree(fp2, true)
	if err != nil {
		t.Fatalf("opening tree after reopen: %v", err)
	}
	if err := t2.Materialize(); err != nil {
		t.Fatalf("materializing tree after reopen: %v", err)
	}
	if err := t2.Validate(); err != nil {
		t.Fatalf("tree invalid after reopen: %v", err)
	}
	if got := snap2.Meta.Objects; got != 500 {
		t.Fatalf("snapshot holds %d objects after reopen, want 500", got)
	}
}

// crashAfterWAL installs a file system under which a commit stops like a
// process that dies once its write-ahead log is durable: after a log's fsync,
// the page-file write after skip of them fails with err, once. The returned
// function, also run at the end of the test, puts the previous one back.
func crashAfterWAL(t *testing.T, skip int, err error) (restore func()) {
	c := &crashFS{skip: skip, err: err}
	restore = storage.UseFS(func(base storage.FS) storage.FS { c.FS = base; return c })
	t.Cleanup(restore)
	return restore
}

type crashFS struct {
	storage.FS
	skip  int
	err   error
	armed bool
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
	if c := f.fs; c.armed && !f.wal {
		if c.skip--; c.skip == -1 {
			return 0, c.err
		}
	}
	return f.File.WriteAt(b, off)
}
