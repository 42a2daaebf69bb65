package cbb

import (
	"cmp"
	"errors"
	"fmt"
	"hash/maphash"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"cbb/internal/storage"
)

// This file holds the crash-state harness and the fault-injecting file
// system of the crash tests, both installed through internal/storage's one
// file seam (storage.UseFS).
//
// The harness runs a workload under a recorder, an FS that forwards every
// call to the OS and logs the durable ones. An enumerator turns each prefix
// of the log into the states a crash at that point may leave on disk, and an
// oracle opens every distinct state in a directory of its own: it must open,
// pass Validate, and hold exactly the workload's last durable objects or its
// in-flight ones. The crash model follows Pillai et al., "All File Systems Are
// Not Created Equal" (OSDI 2014), and Mohan et al., "Finding Crash-Consistency
// Bugs with Bounded Black-Box Crash Testing" (OSDI 2018):
//
//   - a write or truncation persists once its file is fsynced; before that
//     each may be kept or dropped, and a kept write may be torn, keeping only
//     its first 512-byte sectors;
//   - a create, rename or remove persists once its directory is fsynced;
//     before that each may be kept or dropped, except that the calls naming
//     one file persist in order.
//
// The subsets are bounded. Every prefix yields its states with the pending
// writes all kept or none, times the pending directory calls all kept or
// none. The prefix just before each fsync, and the whole log, add the states
// with one pending write dropped or torn (at its first, middle and last
// sector boundary), and those with each order-respecting subset of the
// pending directory calls (all of them up to six calls, else the prefixes and
// the one-call drops and keeps).
//
// A state that holds a write-ahead log is recovered by the oracle's own
// writable open, which replays a committed log and removes it. That recovery
// is recorded in its turn, and every state a crash during it may leave must
// reopen to the objects the uninterrupted recovery found: recovery states,
// one level deep.

// crashFS is a file system under which a commit stops like a process that
// dies once its write-ahead log is durable: after the next log fsync, the
// page-file write after skip of them fails with err, once, and is not
// written. Setting skip again arms the next commit; -1 leaves commits alone.
type crashFS struct {
	storage.FS
	skip  int
	err   error
	armed bool
}

// crashAfterWAL installs a crashFS for the rest of the test.
func crashAfterWAL(t *testing.T, skip int, err error) *crashFS {
	c := &crashFS{skip: skip, err: err}
	t.Cleanup(storage.UseFS(func(base storage.FS) storage.FS { c.FS = base; return c }))
	return c
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
	f.fs.armed = f.fs.armed || f.wal && f.fs.skip >= 0
	return f.File.Sync()
}

func (f crashFile) WriteAt(b []byte, off int64) (int, error) {
	if c := f.fs; c.armed && !f.wal {
		if c.skip--; c.skip == -1 {
			c.armed = false
			return 0, c.err
		}
	}
	return f.File.WriteAt(b, off)
}

type opKind uint8

const (
	opCreate opKind = iota
	opWrite
	opTruncate
	opSync
	opRename
	opRemove
	opSyncDir
)

// fsOp is one logged call. Files are numbered in the order the recorder
// meets them; names are base names in the workload's directory. A truncation
// keeps its size in off.
type fsOp struct {
	kind     opKind
	file     int
	name, to string
	off      int64
	data     []byte
}

// recorder is an FS that forwards every call to the one below it and logs
// the ones that change what a crash may leave. It serialises the calls, so
// the log is their order.
type recorder struct {
	storage.FS
	dir       string
	mu        sync.Mutex
	names     map[string]int // the directory now: name to file number
	initNames map[string]int
	initData  map[int][]byte
	ops       []fsOp
}

// record installs a recorder over dir, whose files are taken as durable, and
// returns it with the function that uninstalls it.
func record(t *testing.T, dir string) (*recorder, func()) {
	r := &recorder{dir: dir, names: map[string]int{}, initData: map[int][]byte{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if r.initData[i], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
		r.names[e.Name()] = i
	}
	r.initNames = maps.Clone(r.names)
	return r, storage.UseFS(func(base storage.FS) storage.FS { r.FS = base; return r })
}

func (r *recorder) base(name string) string {
	if filepath.Dir(name) != r.dir {
		panic("recorder: " + name + " is outside " + r.dir)
	}
	return filepath.Base(name)
}

func (r *recorder) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := r.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	base := r.base(name)
	n, ok := r.names[base]
	switch {
	case !ok:
		n = len(r.initData) + len(r.ops) // unique: at most one file per call
		r.names[base] = n
		r.ops = append(r.ops, fsOp{kind: opCreate, file: n, name: base})
	case flag&os.O_TRUNC != 0:
		r.ops = append(r.ops, fsOp{kind: opTruncate, file: n})
	}
	return &recFile{File: f, r: r, file: n}, nil
}

func (r *recorder) Rename(oldpath, newpath string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.FS.Rename(oldpath, newpath); err != nil {
		return err
	}
	from, to := r.base(oldpath), r.base(newpath)
	r.ops = append(r.ops, fsOp{kind: opRename, name: from, to: to})
	r.names[to] = r.names[from]
	delete(r.names, from)
	return nil
}

func (r *recorder) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.FS.Remove(name); err != nil {
		return err
	}
	r.ops = append(r.ops, fsOp{kind: opRemove, name: r.base(name)})
	delete(r.names, r.base(name))
	return nil
}

func (r *recorder) SyncDir(dir string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.FS.SyncDir(dir)
	if err == nil && filepath.Clean(dir) == r.dir {
		r.ops = append(r.ops, fsOp{kind: opSyncDir})
	}
	return err
}

type recFile struct {
	storage.File
	r    *recorder
	file int
}

func (f *recFile) WriteAt(b []byte, off int64) (int, error) {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	n, err := f.File.WriteAt(b, off)
	f.r.ops = append(f.r.ops, fsOp{kind: opWrite, file: f.file, off: off, data: slices.Clone(b[:n])})
	return n, err
}

func (f *recFile) Truncate(size int64) error {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.r.ops = append(f.r.ops, fsOp{kind: opTruncate, file: f.file, off: size})
	return nil
}

func (f *recFile) Sync() error {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.r.ops = append(f.r.ops, fsOp{kind: opSync, file: f.file})
	return nil
}

// names returns the names a directory call touches.
func (op fsOp) names() []string {
	switch op.kind {
	case opCreate, opRemove:
		return []string{op.name}
	case opRename:
		return []string{op.name, op.to}
	}
	return nil
}

// image is the directory a crash leaves when it cuts the log at prefix and
// the calls keep says were kept reached the disk, the write at tear only up
// to cut bytes: name to content.
func (r *recorder) image(prefix int, keep []bool, tear, cut int) map[string][]byte {
	names := maps.Clone(r.initNames)
	data := map[int][]byte{}
	get := func(n int) []byte {
		if b, ok := data[n]; ok {
			return b
		}
		return slices.Clone(r.initData[n])
	}
	for i, op := range r.ops[:prefix] {
		if !keep[i] {
			continue
		}
		switch op.kind {
		case opCreate:
			names[op.name] = op.file
		case opWrite:
			b, d := get(op.file), op.data
			if i == tear {
				d = d[:cut]
			}
			if end := int(op.off) + len(d); end > len(b) {
				b = append(b, make([]byte, end-len(b))...)
			}
			copy(b[op.off:], d)
			data[op.file] = b
		case opTruncate:
			b := get(op.file)
			if int(op.off) <= len(b) {
				b = b[:op.off]
			} else {
				b = append(b, make([]byte, int(op.off)-len(b))...)
			}
			data[op.file] = b
		case opRename:
			if n, ok := names[op.name]; ok {
				delete(names, op.name)
				names[op.to] = n
			}
		case opRemove:
			delete(names, op.name)
		}
	}
	img := make(map[string][]byte, len(names))
	for name, n := range names {
		if b, ok := data[n]; ok {
			img[name] = b
		} else {
			img[name] = r.initData[n]
		}
	}
	return img
}

// crashStates calls visit with every image a crash during the log may leave
// that seen does not hold yet, with a description of the cut, adds it to
// seen, and returns the number of images it visited.
func (r *recorder) crashStates(seen map[uint64]bool, visit func(what string, img map[string][]byte)) int {
	n, built := len(seen), map[uint64]bool{}
	for prefix := 0; prefix <= len(r.ops); prefix++ {
		// pending: the data and directory calls a later fsync has not made
		// durable yet.
		keep := make([]bool, prefix)
		var data, dir []int
		synced, dirSynced := map[int]bool{}, false
		for i := prefix - 1; i >= 0; i-- {
			switch op := r.ops[i]; op.kind {
			case opSync:
				synced[op.file] = true
			case opSyncDir:
				dirSynced = true
			case opWrite, opTruncate:
				if keep[i] = synced[op.file]; !keep[i] {
					data = append(data, i)
				}
			default:
				if keep[i] = dirSynced; !keep[i] {
					dir = append(dir, i)
				}
			}
		}
		slices.Reverse(data)
		slices.Reverse(dir)
		emit := func(what string, keepData, keepDir func(i int) bool, tear, cut int) {
			k := slices.Clone(keep)
			for _, i := range data {
				k[i] = keepData(i)
			}
			for _, i := range dir {
				k[i] = keepDir(i)
			}
			closeDirSubset(r.ops, dir, k)
			// The calls kept, and the tear, make the image: one built
			// already is not built again.
			var sig maphash.Hash
			sig.SetSeed(imageSeed)
			for i, ok := range k {
				if ok {
					fmt.Fprint(&sig, i, " ")
				}
			}
			fmt.Fprint(&sig, tear, cut)
			if built[sig.Sum64()] {
				return
			}
			built[sig.Sum64()] = true
			img := r.image(prefix, k, tear, cut)
			if h := hashImage(img); !seen[h] {
				seen[h] = true
				visit(fmt.Sprintf("cut after %d of %d calls, %s", prefix, len(r.ops), what), img)
			}
		}
		all := func(int) bool { return true }
		for _, d := range []bool{true, false} {
			for _, n := range []bool{true, false} {
				emit(fmt.Sprintf("pending writes kept=%v, directory calls kept=%v", d, n),
					func(int) bool { return d }, func(int) bool { return n }, -1, 0)
			}
		}
		if prefix < len(r.ops) && r.ops[prefix].kind != opSync && r.ops[prefix].kind != opSyncDir {
			continue
		}
		for _, j := range data {
			emit(fmt.Sprintf("call %d dropped", j), func(i int) bool { return i != j }, all, -1, 0)
			if op := r.ops[j]; op.kind == opWrite {
				for _, cut := range tearPoints(op.off, len(op.data)) {
					emit(fmt.Sprintf("call %d torn at %d of %d bytes", j, cut, len(op.data)), all, all, j, cut)
				}
			}
		}
		for _, subset := range dirSubsets(len(dir)) {
			for _, d := range []bool{true, false} {
				emit(fmt.Sprintf("directory calls %v of %v kept, pending writes kept=%v", pick(dir, subset), dir, d),
					func(int) bool { return d }, func(i int) bool { return subset[slices.Index(dir, i)] }, -1, 0)
			}
		}
	}
	return len(seen) - n
}

// closeDirSubset drops every kept directory call that follows a dropped one
// naming the same file: the calls on one name persist in order.
func closeDirSubset(ops []fsOp, dir []int, keep []bool) {
	dropped := map[string]bool{}
	for _, i := range dir {
		for _, name := range ops[i].names() {
			if dropped[name] {
				keep[i] = false
			}
		}
		if !keep[i] {
			for _, name := range ops[i].names() {
				dropped[name] = true
			}
		}
	}
}

// dirSubsets lists the subsets of n pending directory calls the enumerator
// tries: all of them up to six calls; else every prefix, and every set of all
// calls but one and of one call alone.
func dirSubsets(n int) [][]bool {
	var out [][]bool
	if n <= 6 {
		for mask := 0; mask < 1<<n; mask++ {
			s := make([]bool, n)
			for i := range s {
				s[i] = mask&(1<<i) != 0
			}
			out = append(out, s)
		}
		return out
	}
	for j := 0; j <= n; j++ {
		prefix, allBut, only := make([]bool, n), make([]bool, n), make([]bool, n)
		for i := range n {
			prefix[i], allBut[i], only[i] = i < j, i != j, i == j
		}
		out = append(out, prefix, allBut, only)
	}
	return out
}

func pick(idx []int, subset []bool) []int {
	var out []int
	for i, ok := range subset {
		if ok {
			out = append(out, idx[i])
		}
	}
	return out
}

// tearPoints returns the byte counts at which a write of n bytes at off may
// be torn: its first, middle and last 512-byte sector boundary.
func tearPoints(off int64, n int) []int {
	var cuts []int
	for b := (off/512 + 1) * 512; b < off+int64(n); b += 512 {
		cuts = append(cuts, int(b-off))
	}
	if len(cuts) > 3 {
		cuts = []int{cuts[0], cuts[len(cuts)/2], cuts[len(cuts)-1]}
	}
	return cuts
}

var imageSeed = maphash.MakeSeed()

func hashImage(img map[string][]byte) uint64 {
	var h maphash.Hash
	h.SetSeed(imageSeed)
	for _, name := range slices.Sorted(maps.Keys(img)) {
		fmt.Fprintf(&h, "%s\x00%d\x00", name, len(img[name]))
		h.Write(img[name])
	}
	return h.Sum64()
}

// crashWorkload is one recorded operation: setup leaves the durable state
// before it in dir, run issues the recorded calls, and check is the oracle
// on one crash state, materialised in a directory of its own; it returns the
// objects the state reopens to.
type crashWorkload struct {
	name  string
	setup func(t *testing.T, dir string)
	run   func(t *testing.T, dir string)
	check func(dir string) ([]Item, error)
}

var crashUniverse = R(0, 0, 1024, 1024)

// crashOpts are the trees of the crash workloads: small, so that every state
// opens in about a millisecond.
var crashOpts = Options{Dims: 2, MaxEntries: 8, MinEntries: 3, Universe: crashUniverse}

func crashShardOpts(shards int) ShardedOptions {
	return ShardedOptions{Options: crashOpts, Shards: shards}
}

// holdsOneOf fails unless got is one of wants as a multiset.
func holdsOneOf(what string, got []Item, wants ...[]Item) error {
	for _, want := range wants {
		if sameItems(got, want) {
			return nil
		}
	}
	return fmt.Errorf("%s holds %d objects, neither the durable nor the in-flight set", what, len(got))
}

// openHolds opens the snapshot file at path writable, as the next process
// would, holds it to Validate and to one of wants, and returns its objects.
func openHolds(path string, wants ...[]Item) (got []Item, err error) {
	tr, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { err = cmp.Or(err, tr.Close()) }()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	got = tr.SearchAll(crashUniverse)
	if err := tr.Err(); err != nil {
		return nil, err
	}
	return got, holdsOneOf(filepath.Base(path), got, wants...)
}

// openShardsHold opens the sharded engine in dir writable, holds it to
// Validate, to one of wants, and to a directory with nothing in it that
// shards.json does not name, and returns its objects.
func openShardsHold(dir string, wants ...[]Item) (got []Item, err error) {
	st, err := OpenSharded(dir)
	if err != nil {
		return nil, err
	}
	defer func() { err = cmp.Or(err, st.Close()) }()
	if err := st.Validate(); err != nil {
		return nil, err
	}
	got = st.SearchAll(crashUniverse)
	if err := holdsOneOf("the engine", got, wants...); err != nil {
		return nil, err
	}
	want := []string{shardDirFileName}
	for _, sh := range st.dir.Load().shards {
		want = append(want, filepath.Base(sh.path))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	slices.Sort(want)
	if !slices.Equal(names, want) {
		return nil, fmt.Errorf("the directory holds %v after a writable open, shards.json names %v", names, want)
	}
	return got, nil
}

// minus returns items without those whose ids del holds.
func minus(items, del []Item) []Item {
	return slices.DeleteFunc(slices.Clone(items), func(it Item) bool {
		return slices.ContainsFunc(del, func(d Item) bool { return d.Object == it.Object })
	})
}

func mustTree(t *testing.T, items []Item) *Tree {
	t.Helper()
	tr, err := New(crashOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	return tr
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// crashWorkloads are the durable write paths: a tree's flush, a snapshot
// written over an existing one, a tree created over one, both transcodes, and
// the sharded engine's creation, split, merge and close.
func crashWorkloads() []crashWorkload {
	items := corpusItems(2, 480, 71)
	const path = "t.cbb"
	var pre, post []Item
	var shardPre, shardPost map[string][]Item
	createTree := func(t *testing.T, dir string, in, del []Item) {
		tr, err := Create(filepath.Join(dir, path), crashOpts)
		must(t, err)
		must(t, tr.InsertItems(in))
		must(t, tr.Flush())
		for _, it := range del {
			if _, err := tr.Delete(it.Rect, it.Object); err != nil {
				t.Fatal(err)
			}
		}
		must(t, tr.Close())
	}
	fileCheck := func(dir string) ([]Item, error) { return openHolds(filepath.Join(dir, path), pre, post) }
	writeSnapshot := func(format SnapshotFormat) crashWorkload {
		return crashWorkload{
			name: fmt.Sprintf("WriteSnapshot/v%d", format),
			setup: func(t *testing.T, dir string) {
				pre, post = items[:200], items[300:]
				must(t, mustTree(t, items[:160]).WriteSnapshot(filepath.Join(dir, path), format))
				if format == SnapshotV2 {
					pre = items[:160]
					return
				}
				// Leave a committed log of 40 more beside the file: the new
				// snapshot must never pick it up.
				c := crashAfterWAL(t, 0, errors.New("crash after WAL"))
				tr, err := Open(filepath.Join(dir, path))
				must(t, err)
				must(t, tr.InsertItems(items[160:200]))
				if err := tr.Flush(); !errors.Is(err, c.err) {
					t.Fatalf("Flush = %v, want the injected crash", err)
				}
				must(t, tr.pager.Close())
			},
			run: func(t *testing.T, dir string) {
				must(t, mustTree(t, post).WriteSnapshot(filepath.Join(dir, path), format))
			},
			check: fileCheck,
		}
	}
	shardCheck := func(dir string) ([]Item, error) {
		if _, err := os.Stat(filepath.Join(dir, shardDirFileName)); os.IsNotExist(err) && pre == nil {
			return nil, nil // CreateSharded before its directory file
		}
		return openShardsHold(dir, pre, post)
	}
	rebalance := func(name string, shards int, op func(st *ShardedTree) error) crashWorkload {
		return crashWorkload{
			name: name,
			setup: func(t *testing.T, dir string) {
				pre, post = items[:240], items[:240]
				st, err := CreateSharded(dir, crashShardOpts(shards))
				must(t, err)
				must(t, st.InsertItems(pre))
				must(t, st.Close())
			},
			run: func(t *testing.T, dir string) {
				st, err := OpenSharded(dir)
				must(t, err)
				must(t, op(st))
				must(t, st.Close())
			},
			check: shardCheck,
		}
	}
	// shardItems maps each shard file of st to the objects it holds.
	shardItems := func(st *ShardedTree) map[string][]Item {
		out := map[string][]Item{}
		for _, sh := range st.dir.Load().shards {
			out[filepath.Base(sh.path)] = sh.t.SearchAll(crashUniverse)
		}
		return out
	}
	return []crashWorkload{
		{
			name: "Tree.Flush",
			setup: func(t *testing.T, dir string) {
				pre = items[:240]
				createTree(t, dir, pre, nil)
			},
			run: func(t *testing.T, dir string) {
				del := slices.DeleteFunc(slices.Clone(items[:60]), func(it Item) bool { return it.Object%3 != 0 })
				post = append(minus(pre, del), items[240:300]...)
				tr, err := Open(filepath.Join(dir, path))
				must(t, err)
				must(t, tr.InsertItems(items[240:300]))
				for _, it := range del {
					if _, err := tr.Delete(it.Rect, it.Object); err != nil {
						t.Fatal(err)
					}
				}
				must(t, tr.Flush())
				must(t, tr.Close())
			},
			check: fileCheck,
		},
		writeSnapshot(SnapshotV1),
		writeSnapshot(SnapshotV2),
		{
			name: "Create/over a snapshot",
			setup: func(t *testing.T, dir string) {
				pre, post = corpusItems(2, 1200, 71), []Item{}
				must(t, mustTree(t, pre).WriteSnapshot(filepath.Join(dir, path), SnapshotV1))
			},
			run: func(t *testing.T, dir string) {
				tr, err := Create(filepath.Join(dir, path), crashOpts)
				must(t, err)
				must(t, tr.Close())
			},
			check: fileCheck,
		},
		{
			name: "TranscodeSnapshot/compact",
			setup: func(t *testing.T, dir string) {
				pre = minus(items[:240], items[:80])
				post = pre
				createTree(t, dir, items[:240], items[:80])
			},
			run: func(t *testing.T, dir string) {
				must(t, TranscodeSnapshot(filepath.Join(dir, path), filepath.Join(dir, path), SnapshotV1))
			},
			check: fileCheck,
		},
		{
			name: "TranscodeSnapshot/v1-v2",
			setup: func(t *testing.T, dir string) {
				pre, post = items[:240], items[:240]
				createTree(t, dir, pre, nil)
			},
			run: func(t *testing.T, dir string) {
				must(t, TranscodeSnapshot(filepath.Join(dir, path), filepath.Join(dir, "v2.cbb"), SnapshotV2))
			},
			check: func(dir string) ([]Item, error) {
				got, err := fileCheck(dir)
				if err != nil {
					return nil, err
				}
				if _, err := os.Stat(filepath.Join(dir, "v2.cbb")); os.IsNotExist(err) {
					return got, nil
				}
				_, err = openHolds(filepath.Join(dir, "v2.cbb"), post)
				return got, err
			},
		},
		{
			name:  "CreateSharded",
			setup: func(t *testing.T, dir string) { pre, post = nil, []Item{} },
			run: func(t *testing.T, dir string) {
				st, err := CreateSharded(dir, crashShardOpts(3))
				must(t, err)
				must(t, st.Close())
			},
			check: shardCheck,
		},
		rebalance("SplitShard", 2, func(st *ShardedTree) error { return st.SplitShard(0) }),
		rebalance("MergeShards", 3, func(st *ShardedTree) error { return st.MergeShards(0) }),
		{
			name: "ShardedTree.Close",
			setup: func(t *testing.T, dir string) {
				pre = items[:180]
				st, err := CreateSharded(dir, crashShardOpts(3))
				must(t, err)
				must(t, st.InsertItems(pre))
				shardPre = shardItems(st)
				must(t, st.Close())
			},
			run: func(t *testing.T, dir string) {
				st, err := OpenSharded(dir)
				must(t, err)
				must(t, st.InsertItems(items[180:260]))
				for _, it := range items[:60] {
					if _, err := st.Delete(it.Rect, it.Object); err != nil {
						t.Fatal(err)
					}
				}
				shardPost = shardItems(st)
				must(t, st.Close())
			},
			// Durability is per shard: each file is at its own pre- or
			// post-flush state, whatever the others are at.
			check: func(dir string) (got []Item, err error) {
				st, err := OpenSharded(dir)
				if err != nil {
					return nil, err
				}
				defer func() { err = cmp.Or(err, st.Close()) }()
				if err := st.Validate(); err != nil {
					return nil, err
				}
				for _, sh := range st.dir.Load().shards {
					name := filepath.Base(sh.path)
					if err := holdsOneOf(name, sh.t.SearchAll(crashUniverse), shardPre[name], shardPost[name]); err != nil {
						return nil, err
					}
				}
				return st.SearchAll(crashUniverse), nil
			},
		},
	}
}

// recordCrashStates runs w under the recorder and holds every state a crash
// during it may leave to its oracle, returning the calls recorded and the
// states checked. The run is recorded at GOMAXPROCS 1, so that work fanned
// out over the cores (fanout.ForEachChunk building a split's halves) reaches
// the files in one order and every recording of w is the same log. The
// oracle's open of a state that holds a log is recorded too, and nested
// counts the states a crash during those recoveries may leave; under -short
// or -race only every eighth such recovery is recorded.
func recordCrashStates(t *testing.T, w crashWorkload) (calls, states, nested int) {
	t.Helper()
	dir := t.TempDir()
	w.setup(t, dir)
	rec := recordRun(t, dir, func() { w.run(t, dir) })
	sample := 1
	if testing.Short() || raceEnabled {
		sample = 8
	}
	state, inner := filepath.Join(t.TempDir(), "state"), filepath.Join(t.TempDir(), "state")
	// recovered holds the states with a log met so far; seen, the recovery
	// states checked, by the objects they must reopen to.
	recovered, seen := map[uint64]bool{}, map[uint64]map[uint64]bool{}
	n := rec.crashStates(map[uint64]bool{}, func(what string, img map[string][]byte) {
		materialise(t, state, img)
		if !slices.ContainsFunc(slices.Collect(maps.Keys(img)), isLog) || !firstRecovery(recovered, img, sample) {
			if _, err := w.check(state); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			return
		}
		var want []Item
		var err error
		recovery := recordRun(t, state, func() { want, err = w.check(state) })
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		h := hashItems(want)
		if seen[h] == nil {
			seen[h] = map[uint64]bool{}
		}
		nested += recovery.crashStates(seen[h], func(during string, img map[string][]byte) {
			materialise(t, inner, img)
			got, err := w.check(inner)
			if err == nil && !sameItems(got, want) {
				err = fmt.Errorf("%d objects, the uninterrupted recovery %d", len(got), len(want))
			}
			if err != nil {
				t.Fatalf("%s; recovery %s: %v", what, during, err)
			}
		})
	})
	return len(rec.ops), n, nested
}

// firstRecovery reports whether img is the first state, of every sample
// states, whose recovery is to be recorded, and marks it in recovered.
// Nothing reads a temporary file, so states that differ only in one recover
// alike: the first of them stands for all.
func firstRecovery(recovered map[uint64]bool, img map[string][]byte, sample int) bool {
	kept := maps.Clone(img)
	maps.DeleteFunc(kept, func(name string, _ []byte) bool { return strings.HasSuffix(name, storage.TempSuffix) })
	key := hashImage(kept)
	if recovered[key] {
		return false
	}
	recovered[key] = true
	return len(recovered)%sample == 1%sample
}

// recordRun records the calls run makes in dir at GOMAXPROCS 1.
func recordRun(t *testing.T, dir string, run func()) *recorder {
	rec, restore := record(t, dir)
	defer restore()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	return rec
}

// materialise makes dir hold exactly the files of img.
func materialise(t *testing.T, dir string, img map[string][]byte) {
	must(t, os.RemoveAll(dir))
	must(t, os.Mkdir(dir, 0o755))
	for name, b := range img {
		must(t, os.WriteFile(filepath.Join(dir, name), b, 0o644))
	}
}

func isLog(name string) bool { return strings.HasSuffix(name, storage.WALSuffix) }

func hashItems(items []Item) uint64 {
	var h maphash.Hash
	h.SetSeed(imageSeed)
	for _, it := range slices.SortedFunc(slices.Values(items), cmpItem) {
		fmt.Fprint(&h, it.Object, it.Rect.Lo, it.Rect.Hi)
	}
	return h.Sum64()
}

// TestCrashStates runs every durable write path under the recorder and holds
// every state a crash during it may leave to the workload's oracle. A second
// recording of SplitShard, whose halves are built in parallel when the cores
// allow, must give as many states as the first.
func TestCrashStates(t *testing.T) {
	for i, w := range crashWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			calls, n, nested := recordCrashStates(t, w)
			t.Logf("%d calls, %d crash states, %d recovery states", calls, n, nested)
			if w.name != "SplitShard" {
				return
			}
			t.Run("again", func(t *testing.T) {
				if _, again, _ := recordCrashStates(t, crashWorkloads()[i]); again != n {
					t.Fatalf("SplitShard recorded again: %d crash states, the first time %d", again, n)
				}
			})
		})
	}
}
