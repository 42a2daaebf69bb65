package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/querygen"
	"cbb/internal/rtree"
	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

// This experiment goes beyond the paper: it measures the cold-start query
// cost of a file-backed tree. A clipped RR*-tree is built once per dataset
// and saved as a snapshot; the snapshot is then reopened cold — nothing
// decoded, nothing cached — for every (buffer-pool capacity, clipping)
// configuration, and a medium-selectivity query batch runs directly against
// the on-disk pages. Buffer-pool misses are the simulated disk I/O, disk
// reads are the pages physically faulted in from the file, and clipping is
// expected to narrow both: the children it prunes are exactly the pages a
// cold tree never has to read.

// ColdStartRow is one (dataset, pool capacity, clipping) measurement.
type ColdStartRow struct {
	Dataset   string
	PoolPages int   // buffer-pool capacity in pages
	Clipped   bool  // clipped (CSTA) vs. plain search on the same file
	Results   int   // total query results (identical for both modes)
	LeafReads int64 // logical leaf accesses (the paper's metric)
	DirReads  int64 // logical directory accesses
	Hits      int64 // buffer-pool hits
	Misses    int64 // buffer-pool misses = simulated disk pages
	DiskReads int64 // pages physically read from the snapshot file
}

// ColdStartResult is the outcome of RunColdStart.
type ColdStartResult struct {
	Scale   int
	Queries int
	Rows    []ColdStartRow
}

// coldStartFractions are the buffer-pool capacities swept, as fractions of
// the tree's node count.
var coldStartFractions = []float64{0.02, 0.05, 0.10, 0.25, 1.0}

// RunColdStart builds and snapshots a clipped RR*-tree per dataset, then
// reopens the snapshot cold for each buffer-pool capacity and measures the
// file-backed query I/O of the clipped and unclipped search on the same
// pages.
func RunColdStart(cfg Config) (*ColdStartResult, error) {
	cfg = cfg.WithDefaults()
	dir, err := os.MkdirTemp("", "cbb-coldstart-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &ColdStartResult{Scale: cfg.Scale, Queries: cfg.Queries}
	for _, name := range cfg.Datasets {
		ds, err := cfg.LoadDataset(name)
		if err != nil {
			return nil, err
		}
		tree, _, err := cfg.BuildTree(ds, rtree.RRStar)
		if err != nil {
			return nil, err
		}
		idx, _, err := cfg.ClipTree(tree, core.MethodStairline)
		if err != nil {
			return nil, err
		}
		params := cfg.params(ds.Spec.Dims, core.MethodStairline)
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
		path := filepath.Join(dir, name+".cbb")
		if err := snapshot.WriteFile(path, tree, idx, meta); err != nil {
			return nil, err
		}

		queries, err := cfg.QuerySet(ds)
		if err != nil {
			return nil, err
		}
		batch := queries[querygen.QR1]
		dirNodes, leafNodes := tree.NodeCount()
		total := dirNodes + leafNodes

		for _, frac := range coldStartFractions {
			capacity := int(frac * float64(total))
			if capacity < 1 {
				capacity = 1
			}
			for _, clipped := range []bool{false, true} {
				row, err := coldStartRun(path, batch, capacity, clipped)
				if err != nil {
					return nil, fmt.Errorf("cold start on %s (pool %d): %w", name, capacity, err)
				}
				row.Dataset = name
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res, nil
}

// coldStartRun opens the snapshot cold and runs the query batch file-backed.
func coldStartRun(path string, batch []geom.Rect, capacity int, clipped bool) (ColdStartRow, error) {
	snap, fp, err := snapshot.OpenFile(path, false)
	if err != nil {
		return ColdStartRow{}, err
	}
	defer fp.Close()
	tree, err := snap.OpenTree(fp, true)
	if err != nil {
		return ColdStartRow{}, err
	}
	// The reported miss count IS this experiment's metric, so the pool
	// must be an exact LRU at every capacity: use the unsharded layout
	// (the run is strictly sequential; striping would buy nothing).
	tree.SetBufferPool(storage.NewUnshardedBufferPool(capacity))

	results := 0
	visit := func(rtree.ObjectID, geom.Rect) bool { results++; return true }
	if clipped {
		params, ok := snap.Meta.ClipParams()
		if !ok {
			return ColdStartRow{}, fmt.Errorf("snapshot %s has no clip table", path)
		}
		idx, err := clipindex.Restore(tree, params, snap.Table)
		if err != nil {
			return ColdStartRow{}, err
		}
		for _, q := range batch {
			idx.Search(q, visit)
		}
	} else {
		for _, q := range batch {
			tree.Search(q, visit)
		}
	}
	if err := tree.Err(); err != nil {
		return ColdStartRow{}, err
	}
	io := tree.Counter().Snapshot()
	hits, misses := tree.BufferPool().Stats()
	reads, _ := fp.DiskStats()
	return ColdStartRow{
		PoolPages: capacity,
		Clipped:   clipped,
		Results:   results,
		LeafReads: io.LeafReads,
		DirReads:  io.DirReads,
		Hits:      hits,
		Misses:    misses,
		DiskReads: reads,
	}, nil
}

// Table renders the cold-start sweep with plain and clipped runs side by
// side per pool capacity.
func (r *ColdStartResult) Table() *Table {
	t := NewTable(
		fmt.Sprintf("Cold-start file-backed query I/O (RR*-tree, CSTA vs. plain, %d objects, %d QR1 queries)", r.Scale, r.Queries),
		"dataset", "pool", "mode", "results", "leaf", "dir", "pool miss", "hit rate", "disk reads",
	)
	for _, row := range r.Rows {
		mode := "plain"
		if row.Clipped {
			mode = "CSTA"
		}
		total := row.Hits + row.Misses
		hitRate := 0.0
		if total > 0 {
			hitRate = float64(row.Hits) / float64(total)
		}
		t.AddRow(row.Dataset, row.PoolPages, mode, row.Results,
			row.LeafReads, row.DirReads, row.Misses, Pct(hitRate), row.DiskReads)
	}
	t.AddNote("each row reopens the snapshot file cold; pool misses are the simulated disk I/O, disk reads the pages actually faulted from the file")
	return t
}
