package cbb

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cbb/internal/storage"
)

// Persistence of the sharded engine: a ShardedTree binds to a directory
// holding one snapshot file per shard (each with its own WAL, exactly as
// Create/Open produce) plus a shards.json directory file mapping Hilbert
// key ranges to shard files. Every layout change — creation, a split or a
// merge — flushes the new shard files, replaces shards.json atomically
// (storage.ReplaceFile, which fsyncs the directory), and only then deletes
// the files of the shards it replaced, so a crash leaves the pre- or the
// post-rebalance layout. Shard files a crash leaves unnamed (between a new
// shard file's creation and the rename, or after a failed directory fsync),
// and their temporary files, are deleted by the next writable OpenSharded
// (reclaimOrphans).

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
	st, err := newShardedTree(opts, dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, shardDirFileName)); err == nil {
		return nil, fmt.Errorf("cbb: %s already holds a sharded engine", dir)
	}
	if err := st.createShards(); err != nil {
		return nil, err
	}
	return st, nil
}

// OpenSharded opens a sharded engine previously created with CreateSharded:
// shards.json is read, every shard file is opened file-backed (queries
// fault pages in on demand; mutations commit through each shard's WAL), and
// the engine resumes with the persisted layout and options. Interrupted
// per-shard commits are recovered by each shard's own WAL replay; an
// interrupted rebalance resumes at the layout shards.json names, and the
// shard files it does not name are deleted.
func OpenSharded(dir string) (*ShardedTree, error) {
	return openSharded(dir, Open, true)
}

// OpenShardedMmap opens a sharded engine with every shard served through a
// read-only memory mapping (see OpenMmap): queries decode node pages in
// place from the mapped shard files and mutations return ErrReadOnly. It
// fails with ErrMmapUnsupported on platforms without mmap support; fall back
// to OpenSharded.
func OpenShardedMmap(dir string) (*ShardedTree, error) {
	return openSharded(dir, OpenMmap, false)
}

func openSharded(dir string, open func(path string) (*Tree, error), reclaim bool) (*ShardedTree, error) {
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
	st, err := newShardedTree(df.Options, dir)
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
		if t.Options().Dims != st.opts.Dims {
			return fail(fmt.Errorf("cbb: shard %s has %d dimensions, directory says %d", e.File, t.Options().Dims, st.opts.Dims))
		}
		st.adoptShardTree(t)
		shards[i] = &shard{lo: e.Lo, hi: e.Hi, t: t, path: path}
	}
	if err := st.checkDirectoryRanges(shards); err != nil {
		return fail(fmt.Errorf("%w (in %s)", err, shardDirFileName))
	}
	st.dir.Store(&shardDir{shards: shards})
	if reclaim {
		reclaimOrphans(dir, df)
	}
	return st, nil
}

// reclaimOrphans deletes, best-effort, the shard files (with their logs and
// temporary files) in dir that df does not name — a split's or merge's, cut
// short by a crash — and the directory file's temporary file.
func reclaimOrphans(dir string, df shardDirFile) {
	entries, _ := os.ReadDir(dir)
	named := map[string]bool{}
	for _, e := range df.Shards {
		named[e.File] = true
	}
	for _, e := range entries {
		base := strings.TrimSuffix(strings.TrimSuffix(e.Name(), storage.TempSuffix), storage.WALSuffix)
		shardFile, _ := filepath.Match("shard-*.cbb", base)
		if (shardFile && !named[base]) || e.Name() == shardDirFileName+storage.TempSuffix {
			storage.Remove(filepath.Join(dir, e.Name()))
		}
	}
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
// list with storage.ReplaceFile; a no-op for in-memory engines. An error means shards.json still holds the old
// layout. Once the rename is done the new layout stands, and durable reports
// whether the directory fsync made it survive a crash: only then may the
// files of the shards it replaced go.
func (st *ShardedTree) persistDirectory(shards []*shard) (durable bool, err error) {
	if st.dirPath == "" {
		return true, nil
	}
	st.fileMu.Lock()
	defer st.fileMu.Unlock()
	df := shardDirFile{Version: shardDirFileVersion, Seq: st.seq.Load(), Options: st.opts}
	for _, sh := range shards {
		df.Shards = append(df.Shards, shardEntry{File: filepath.Base(sh.path), Lo: sh.lo, Hi: sh.hi})
	}
	raw, err := json.MarshalIndent(df, "", "\t")
	if err != nil {
		return false, err
	}
	return storage.ReplaceFile(filepath.Join(st.dirPath, shardDirFileName), func(f storage.File) error {
		_, err := f.WriteAt(raw, 0)
		return err
	})
}

// Flush commits every live shard's changes into its snapshot file, each
// through its own atomic WAL-protected commit. Durability is per shard: a
// crash mid-Flush may leave one shard's file before its commit and another's
// after it. Like Tree.Flush it is a writer-side operation: it fails on a
// shard with an open batch. In-memory engines return an error, matching
// Tree.Flush without a file binding.
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
// closed, each shard durable on its own as in Flush. A split or merge has
// already removed the files of the shards it replaced. The engine must not be used afterwards. In-memory shards have
// nothing to release.
func (st *ShardedTree) Close() error {
	var errs []error
	for i, sh := range st.dir.Load().shards {
		if err := sh.t.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// removeShardFile deletes a shard's snapshot file and any WAL left next to
// it; best-effort (the files are dead weight, not state).
func removeShardFile(path string) {
	if path == "" {
		return
	}
	storage.Remove(path)
	storage.Remove(storage.WALPathFor(path))
}
