package cbb

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"cbb/internal/storage"
)

// Persistence of the sharded engine: a ShardedTree binds to a directory
// holding one snapshot file per shard (each with its own WAL, exactly as
// Create/Open produce) plus a shards.json directory file mapping Hilbert
// key ranges to shard files. The directory file is rewritten atomically
// (temp file + rename) whenever the shard layout changes — at creation and
// on every split or merge — so a crash leaves it at either the pre- or the
// post-rebalance layout, and the shard files it references are always
// flushed before the rename. Shard files orphaned by a crash mid-rebalance
// are ignored by OpenSharded and removed on the next Close.

// shardDirFileName is the directory file inside a sharded engine's
// directory.
const shardDirFileName = "shards.json"

// shardDirFileVersion is the format version of shards.json.
const shardDirFileVersion = 1

type shardDirFile struct {
	Version int            `json:"version"`
	Seq     uint64         `json:"seq"`
	Options ShardedOptions `json:"options"`
	Shards  []shardEntry   `json:"shards"`
}

type shardEntry struct {
	File string `json:"file"`
	Lo   uint64 `json:"lo"`
	Hi   uint64 `json:"hi"`
}

// CreateSharded creates a new, empty, file-backed ShardedTree in dir (which
// is created if missing): one snapshot file per shard plus shards.json. It
// fails if dir already holds a sharded engine.
func CreateSharded(dir string, opts ShardedOptions) (*ShardedTree, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	dirFile := filepath.Join(dir, shardDirFileName)
	if _, err := os.Stat(dirFile); err == nil {
		return nil, fmt.Errorf("cbb: %s already holds a sharded engine", dir)
	}
	st := &ShardedTree{opts: opts, counter: newSharedCounter(), dirPath: dir}
	st.curve, err = newShardCurve(opts)
	if err != nil {
		return nil, err
	}
	ranges := st.initialRanges()
	shards := make([]*shard, len(ranges))
	fail := func(err error) (*ShardedTree, error) {
		for _, sh := range shards {
			if sh != nil {
				st.discardShard(sh)
			}
		}
		return nil, err
	}
	for i, rg := range ranges {
		path := st.nextShardPath()
		t, err := Create(path, opts.Options)
		if err != nil {
			return fail(err)
		}
		st.adoptShardTree(t)
		shards[i] = &shard{lo: rg[0], hi: rg[1], t: t, path: path}
	}
	if err := st.persistDirectory(shards); err != nil {
		return fail(err)
	}
	st.dir.Store(&shardDir{shards: shards})
	return st, nil
}

// OpenSharded opens a sharded engine previously created with CreateSharded:
// shards.json is read, every shard file is opened file-backed (queries
// fault pages in on demand; mutations commit through each shard's WAL), and
// the engine resumes with the persisted layout and options. Interrupted
// per-shard commits are recovered by each shard's own WAL replay; an
// interrupted rebalance resumes at whichever layout shards.json references.
func OpenSharded(dir string) (*ShardedTree, error) {
	return openSharded(dir, Open)
}

// OpenShardedMmap opens a sharded engine with every shard served through a
// read-only memory mapping (see OpenMmap): queries decode node pages in
// place from the mapped shard files and mutations return ErrReadOnly. It
// fails with ErrMmapUnsupported on platforms without mmap support; fall back
// to OpenSharded.
func OpenShardedMmap(dir string) (*ShardedTree, error) {
	return openSharded(dir, OpenMmap)
}

func openSharded(dir string, open func(path string) (*Tree, error)) (*ShardedTree, error) {
	raw, err := os.ReadFile(filepath.Join(dir, shardDirFileName))
	if err != nil {
		return nil, err
	}
	var df shardDirFile
	if err := json.Unmarshal(raw, &df); err != nil {
		return nil, fmt.Errorf("cbb: corrupt %s: %w", shardDirFileName, err)
	}
	if df.Version != shardDirFileVersion {
		return nil, fmt.Errorf("cbb: unsupported %s version %d", shardDirFileName, df.Version)
	}
	if len(df.Shards) == 0 {
		return nil, fmt.Errorf("cbb: %s lists no shards", shardDirFileName)
	}
	opts, err := df.Options.withDefaults()
	if err != nil {
		return nil, err
	}
	st := &ShardedTree{opts: opts, counter: newSharedCounter(), dirPath: dir}
	st.curve, err = newShardCurve(opts)
	if err != nil {
		return nil, err
	}
	st.seq.Store(df.Seq)
	shards := make([]*shard, len(df.Shards))
	fail := func(err error) (*ShardedTree, error) {
		for _, sh := range shards {
			if sh != nil {
				sh.t.Close()
			}
		}
		return nil, err
	}
	for i, e := range df.Shards {
		path := filepath.Join(dir, e.File)
		t, err := open(path)
		if err != nil {
			return fail(fmt.Errorf("cbb: opening shard %s: %w", e.File, err))
		}
		if t.Options().Dims != opts.Dims {
			return fail(fmt.Errorf("cbb: shard %s has %d dimensions, directory says %d", e.File, t.Options().Dims, opts.Dims))
		}
		st.adoptShardTree(t)
		shards[i] = &shard{lo: e.Lo, hi: e.Hi, t: t, path: path}
	}
	st.dir.Store(&shardDir{shards: shards})
	if err := st.checkDirectoryRanges(shards); err != nil {
		return fail(err)
	}
	return st, nil
}

// checkDirectoryRanges validates the persisted layout: contiguous ranges
// covering exactly the curve's key space.
func (st *ShardedTree) checkDirectoryRanges(shards []*shard) error {
	want := uint64(0)
	for i, sh := range shards {
		if sh.lo != want || sh.lo >= sh.hi {
			return fmt.Errorf("cbb: %s: shard %d has key range [%d, %d), want start %d", shardDirFileName, i, sh.lo, sh.hi, want)
		}
		want = sh.hi
	}
	if max := st.curve.MaxIndex() + 1; want != max {
		return fmt.Errorf("cbb: %s: shards cover keys up to %d, want %d", shardDirFileName, want, max)
	}
	return nil
}

// nextShardPath reserves the next shard file name ("" for an in-memory
// engine, whose shards have no file).
func (st *ShardedTree) nextShardPath() string {
	if st.dirPath == "" {
		return ""
	}
	n := st.seq.Add(1)
	return filepath.Join(st.dirPath, fmt.Sprintf("shard-%06d.cbb", n))
}

// persistDirectory atomically rewrites shards.json for a prospective shard
// list; a no-op for in-memory engines.
func (st *ShardedTree) persistDirectory(shards []*shard) error {
	if st.dirPath == "" {
		return nil
	}
	st.fileMu.Lock()
	defer st.fileMu.Unlock()
	df := shardDirFile{Version: shardDirFileVersion, Seq: st.seq.Load(), Options: st.opts}
	for _, sh := range shards {
		df.Shards = append(df.Shards, shardEntry{File: filepath.Base(sh.path), Lo: sh.lo, Hi: sh.hi})
	}
	raw, err := json.MarshalIndent(df, "", "\t")
	if err != nil {
		return err
	}
	tmp := filepath.Join(st.dirPath, shardDirFileName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, filepath.Join(st.dirPath, shardDirFileName))
}

// Flush commits every live shard's changes into its snapshot file, each
// through its own atomic WAL-protected commit. Like Tree.Flush it is a
// writer-side operation: it fails on a shard with an open batch. In-memory
// engines return an error, matching Tree.Flush without a file binding.
func (st *ShardedTree) Flush() error {
	if st.dirPath == "" {
		return errors.New("cbb: sharded tree has no directory binding; use CreateSharded")
	}
	var errs []error
	for i, sh := range st.dir.Load().shards {
		if err := sh.t.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Close releases the engine: every live file-backed shard is flushed and
// closed, and the files of shards retired by splits and merges — kept open
// until now so pinned views stayed valid — are closed and removed. The
// engine must not be used afterwards. In-memory engines only release the
// retired bookkeeping.
func (st *ShardedTree) Close() error {
	var errs []error
	for i, sh := range st.dir.Load().shards {
		if err := sh.t.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	st.retiredMu.Lock()
	retired := st.retired
	st.retired = nil
	st.retiredMu.Unlock()
	for _, sh := range retired {
		if err := sh.t.Close(); err != nil {
			errs = append(errs, err)
		}
		removeShardFile(sh.path)
	}
	return errors.Join(errs...)
}

// removeShardFile deletes a shard's snapshot file and any WAL left next to
// it; best-effort (the files are dead weight, not state).
func removeShardFile(path string) {
	if path == "" {
		return
	}
	os.Remove(path)
	os.Remove(storage.WALPathFor(path))
}
