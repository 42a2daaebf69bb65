package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/datasets"
	"cbb/internal/geom"
	"cbb/internal/querygen"
	"cbb/internal/rtree"
	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

// This experiment extends the cold-start study to the storage formats: the
// same clipped RR*-tree is served from a v1 snapshot through the pread-based
// pager, from a compressed v2 snapshot through the same pager, and from the
// v2 snapshot through a read-only memory mapping. Every configuration gets
// the same buffer-pool BYTE budget (a fraction of the v1 file size), so a
// smaller format holds more nodes resident in the same memory — exactly the
// beyond-RAM trade the compressed pages exist for. Reported per row: the
// file size, the cold query I/O (pool misses, physical page reads, minor
// page faults), and the warm re-run latency once the working set is cached.

// ColdFormatRow is one (dataset, format/store) measurement.
type ColdFormatRow struct {
	Dataset     string
	Mode        string  // "v1+pager", "v2+pager", "v2+mmap"
	FileBytes   int64   // snapshot file size
	BytesPerObj float64 // FileBytes / objects
	Results     int     // total query results (identical across modes)
	LeafReads   int64   // logical leaf accesses
	DirReads    int64   // logical directory accesses
	Hits        int64   // buffer-pool hits (cold pass)
	Misses      int64   // buffer-pool misses (cold pass)
	DiskReads   int64   // pages physically read from the store (cold pass)
	MinorFaults int64   // minor page faults during the cold pass (-1 if unavailable)
	WarmNsPerQ  float64 // ns per query once the working set is resident
}

// ColdFormatResult is the outcome of RunColdFormats.
type ColdFormatResult struct {
	Scale     int
	Queries   int
	PoolBytes int64 // the shared buffer-pool byte budget of the last dataset
	Rows      []ColdFormatRow
}

// coldFormatPoolFraction is the buffer-pool byte budget as a fraction of the
// v1 snapshot file size — small enough that the cold pass cannot keep the
// whole v1 tree resident, so a denser format shows up as a higher hit rate.
const coldFormatPoolFraction = 0.25

// coldFormatChunk is the generator chunk size: datasets are streamed into
// the build in chunks so generation never holds the full object slice, and
// the first chunk doubles as the sample the query generator works from.
const coldFormatChunk = 1 << 16

// RunColdFormats builds one clipped RR*-tree per dataset (streaming the
// generator), writes it as a v1 snapshot, transcodes that to v2, and then
// reopens the files cold under each store: v1 and v2 through the buffer-pool
// pager, v2 through mmap. All three serve bit-identical results; the rows
// quantify what the compressed format buys in file size and cold I/O.
func RunColdFormats(cfg Config) (*ColdFormatResult, error) {
	cfg = cfg.WithDefaults()
	dir, err := os.MkdirTemp("", "cbb-coldformats-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &ColdFormatResult{Scale: cfg.Scale, Queries: cfg.Queries}
	for _, name := range cfg.Datasets {
		spec, err := datasets.Lookup(name)
		if err != nil {
			return nil, err
		}
		uni, err := datasets.Universe(name)
		if err != nil {
			return nil, err
		}

		// Stream the generator into the build: only one chunk of objects is
		// ever materialised. The first chunk is kept as the sample the query
		// generator draws selectivity targets from.
		tree, err := rtree.New(treeConfig(spec.Dims, rtree.RRStar, uni))
		if err != nil {
			return nil, err
		}
		var sample []geom.Rect
		next := rtree.ObjectID(0)
		err = datasets.GenerateStream(name, cfg.Scale, cfg.Seed, coldFormatChunk, func(chunk []geom.Rect) error {
			if sample == nil {
				sample = append([]geom.Rect(nil), chunk...)
			}
			for _, r := range chunk {
				if _, err := tree.Insert(r, next); err != nil {
					return err
				}
				next++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		idx, _, err := cfg.ClipTree(tree, core.MethodStairline)
		if err != nil {
			return nil, err
		}
		params := cfg.params(spec.Dims, core.MethodStairline)
		treeCfg := tree.Config()
		meta := snapshot.Meta{
			Dims:          treeCfg.Dims,
			Variant:       treeCfg.Variant,
			MaxEntries:    treeCfg.MaxEntries,
			MinEntries:    treeCfg.MinEntries,
			HilbertBits:   treeCfg.HilbertBits,
			Universe:      treeCfg.Universe,
			ClipMethod:    snapshot.ClipStairline,
			MaxClipPoints: params.K,
			ClipTau:       params.Tau,
		}
		v1Path := filepath.Join(dir, name+"-v1.cbb")
		if err := snapshot.WriteFile(v1Path, tree, idx, meta); err != nil {
			return nil, err
		}
		v2Path := filepath.Join(dir, name+"-v2.cbb")
		if err := snapshot.Transcode(v1Path, v2Path, snapshot.FormatV2); err != nil {
			return nil, err
		}

		gen, err := querygen.New(sample, uni, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		batch := gen.Queries(querygen.QR1, cfg.Queries)
		objects := tree.Len()
		tree, idx = nil, nil // free the in-memory build before measuring

		v1Info, err := os.Stat(v1Path)
		if err != nil {
			return nil, err
		}
		budget := int64(coldFormatPoolFraction * float64(v1Info.Size()))
		if budget < 1 {
			budget = 1
		}
		res.PoolBytes = budget

		want := -1
		for _, mode := range []string{"v1+pager", "v2+pager", "v2+mmap"} {
			path := v2Path
			if mode == "v1+pager" {
				path = v1Path
			}
			row, err := coldFormatRun(path, mode, batch, budget)
			if errors.Is(err, storage.ErrMmapUnsupported) {
				continue // non-unix build: the pager rows stand alone
			}
			if err != nil {
				return nil, fmt.Errorf("cold format %s on %s: %w", mode, name, err)
			}
			if want < 0 {
				want = row.Results
			} else if row.Results != want {
				return nil, fmt.Errorf("%s on %s returned %d results, v1 returned %d", mode, name, row.Results, want)
			}
			row.Dataset = name
			row.BytesPerObj = float64(row.FileBytes) / float64(objects)
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// coldFormatRun opens one snapshot cold under the requested store, runs the
// clipped query batch against the on-disk pages, and then re-runs it warm.
func coldFormatRun(path, mode string, batch []geom.Rect, poolBytes int64) (ColdFormatRow, error) {
	var (
		store storage.PageStore
		snap  *snapshot.Snapshot
		err   error
	)
	if mode == "v2+mmap" {
		ms, merr := storage.OpenMmapStore(path)
		if merr != nil {
			return ColdFormatRow{}, merr
		}
		store = ms
		snap, err = snapshot.Read(ms)
	} else {
		var fp *storage.FilePager
		snap, fp, err = snapshot.OpenFile(path, true)
		if fp != nil {
			store = fp
		}
	}
	if err != nil {
		if store != nil {
			store.(interface{ Close() error }).Close()
		}
		return ColdFormatRow{}, err
	}
	defer store.(interface{ Close() error }).Close()

	tree, err := snap.OpenTree(store, true)
	if err != nil {
		return ColdFormatRow{}, err
	}
	// Byte-budget pool: every mode gets the same resident-byte allowance, so
	// denser pages directly become a higher hit rate. Unsharded for an exact
	// LRU — the run is strictly sequential.
	tree.SetBufferPool(storage.NewUnshardedBufferPoolBytes(poolBytes))
	params, ok := snap.Meta.ClipParams()
	if !ok {
		return ColdFormatRow{}, fmt.Errorf("snapshot %s has no clip table", path)
	}
	idx, err := clipindex.Restore(tree, params, snap.Table)
	if err != nil {
		return ColdFormatRow{}, err
	}

	results := 0
	visit := func(rtree.ObjectID, geom.Rect) bool { results++; return true }
	faultsBefore := minorFaults()
	for _, q := range batch {
		idx.Search(q, visit)
	}
	faults := minorFaults()
	if faultsBefore >= 0 && faults >= 0 {
		faults -= faultsBefore
	}
	if err := tree.Err(); err != nil {
		return ColdFormatRow{}, err
	}
	io := tree.Counter().Snapshot()
	hits, misses := tree.BufferPool().Stats()
	reads, _ := store.(interface{ DiskStats() (int64, int64) }).DiskStats()

	// Warm pass: the working set (bounded by the pool budget) is resident;
	// time the same batch again.
	start := time.Now()
	for _, q := range batch {
		idx.Search(q, func(rtree.ObjectID, geom.Rect) bool { return true })
	}
	warm := time.Since(start)
	if err := tree.Err(); err != nil {
		return ColdFormatRow{}, err
	}

	fi, err := os.Stat(path)
	if err != nil {
		return ColdFormatRow{}, err
	}
	return ColdFormatRow{
		Mode:        mode,
		FileBytes:   fi.Size(),
		Results:     results,
		LeafReads:   io.LeafReads,
		DirReads:    io.DirReads,
		Hits:        hits,
		Misses:      misses,
		DiskReads:   reads,
		MinorFaults: faults,
		WarmNsPerQ:  float64(warm.Nanoseconds()) / float64(len(batch)),
	}, nil
}

// Table renders the format sweep with the three stores side by side.
func (r *ColdFormatResult) Table() *Table {
	t := NewTable(
		fmt.Sprintf("Cold-start storage formats (RR*-tree + CSTA, %d objects, %d QR1 queries, %d B pool budget)", r.Scale, r.Queries, r.PoolBytes),
		"dataset", "store", "file B", "B/obj", "results", "leaf", "pool miss", "hit rate", "disk reads", "minflt", "warm ns/q",
	)
	for _, row := range r.Rows {
		total := row.Hits + row.Misses
		hitRate := 0.0
		if total > 0 {
			hitRate = float64(row.Hits) / float64(total)
		}
		t.AddRow(row.Dataset, row.Mode, row.FileBytes, fmt.Sprintf("%.1f", row.BytesPerObj),
			row.Results, row.LeafReads, row.Misses, Pct(hitRate), row.DiskReads,
			row.MinorFaults, fmt.Sprintf("%.0f", row.WarmNsPerQ))
	}
	t.AddNote("every store gets the same buffer-pool byte budget (25%% of the v1 file); results are bit-identical across rows of a dataset")
	t.AddNote("minflt counts process-wide minor page faults during the cold pass (-1 where rusage is unavailable); mmap faults pages instead of copying them through the pool")
	return t
}
