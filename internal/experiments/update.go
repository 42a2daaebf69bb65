package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/querygen"
	"cbb/internal/rtree"
	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

// This experiment goes beyond the paper's Figure 12 (which measures re-clip
// frequency on an in-memory tree): it drives a *writable file-backed* tree
// through mixed insert/delete/search traffic — the serving scenario the
// clipped index is designed for — and measures, side by side for the plain
// and the clipped (CSTA) configuration, the query I/O during the mix, the
// clip-maintenance cost (re-clips and validity checks per Section IV-D), and
// the physical cost of durability: pages written back per flush through the
// write-ahead log.
//
// The tree is bulk-built over 90 % of the dataset, snapshotted, and reopened
// file-backed and writable. The remaining 10 % arrives in rounds; each round
// inserts its batch, deletes a fifth of it again (churn), runs the QR1 query
// batch, and flushes. Clipping is expected to cut the search I/O at the
// price of clip-table maintenance on every structural change — exactly the
// trade-off the paper argues is worth it.

// UpdateWorkloadRow is one (dataset, clipping) measurement.
type UpdateWorkloadRow struct {
	Dataset string
	Clipped bool // CSTA vs. plain on the same data and op sequence

	Inserts int
	Deletes int
	Results int // total query results across all rounds (identical per mode)

	SearchLeaf int64 // logical leaf accesses of the interleaved query batches
	SearchDir  int64 // logical directory accesses
	Writes     int64 // simulated node writes of the update stream

	Reclips        int // clip-table recomputations (0 when not clipped)
	ValidityChecks int // Algorithm 2 insert-selector checks
	AvoidedReclips int // checks that passed, saving a recomputation

	DiskReads  int64 // pages physically read from the snapshot file
	DiskWrites int64 // pages physically written back (WAL-committed)
	Flushes    int
	FlushTime  time.Duration // total wall-clock time of all flushes
}

// UpdateWorkloadResult is the outcome of RunUpdateWorkload.
type UpdateWorkloadResult struct {
	Scale   int
	Queries int
	Rounds  int
	Rows    []UpdateWorkloadRow
}

// updateRounds is the number of insert/search/flush rounds the pending 10 %
// of the data is spread over.
const updateRounds = 5

// RunUpdateWorkload measures query I/O and clip-maintenance cost under
// mixed insert/search traffic against writable file-backed trees, clipped
// vs. plain, per dataset.
func RunUpdateWorkload(cfg Config) (*UpdateWorkloadResult, error) {
	cfg = cfg.WithDefaults()
	dir, err := os.MkdirTemp("", "cbb-update-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &UpdateWorkloadResult{Scale: cfg.Scale, Queries: cfg.Queries, Rounds: updateRounds}
	for _, name := range cfg.Datasets {
		ds, err := cfg.LoadDataset(name)
		if err != nil {
			return nil, err
		}
		queries, err := cfg.QuerySet(ds)
		if err != nil {
			return nil, err
		}
		batch := queries[querygen.QR1]
		for _, clipped := range []bool{false, true} {
			row, err := updateWorkloadRun(cfg, ds, batch, clipped, dir)
			if err != nil {
				return nil, fmt.Errorf("update workload on %s (clipped=%v): %w", name, clipped, err)
			}
			row.Dataset = name
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// updateWorkloadRun builds, snapshots, and reopens one tree writable, then
// drives the mixed workload against it.
func updateWorkloadRun(cfg Config, ds *Dataset, batch []geom.Rect, clipped bool, dir string) (UpdateWorkloadRow, error) {
	row := UpdateWorkloadRow{Clipped: clipped}
	tree, pending, err := BuildTreePartial(ds, rtree.RRStar, 0.9)
	if err != nil {
		return row, err
	}
	params := cfg.params(ds.Spec.Dims, core.MethodStairline)
	clipMethod, mode := snapshot.ClipStairline, "csta"
	if !clipped {
		// The plain R-tree is the same index with an empty clip table.
		params.K, clipMethod, mode = 0, snapshot.ClipNone, "plain"
	}
	treeCfg := tree.Config()
	meta := snapshot.Meta{
		Dims:          treeCfg.Dims,
		Variant:       treeCfg.Variant,
		MaxEntries:    treeCfg.MaxEntries,
		MinEntries:    treeCfg.MinEntries,
		HilbertBits:   treeCfg.HilbertBits,
		Universe:      treeCfg.Universe,
		ClipMethod:    clipMethod,
		MaxClipPoints: params.K,
		ClipTau:       params.Tau,
	}
	built, err := clipindex.New(tree, params)
	if err != nil {
		return row, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.cbb", ds.Spec.Name, mode))
	if err := snapshot.WriteFile(path, tree, built, meta); err != nil {
		return row, err
	}

	// Reopen writable and file-backed: updates and queries now run against
	// the on-disk pages, with flushes committing through the WAL.
	snap, fp, err := snapshot.OpenFile(path, false)
	if err != nil {
		return row, err
	}
	defer fp.Close()
	if err := fp.EnableJournal(); err != nil {
		return row, err
	}
	ft, err := snap.OpenTree(fp, false)
	if err != nil {
		return row, err
	}
	idx, err := clipindex.Restore(ft, params, snap.Table)
	if err != nil {
		return row, err
	}

	flush := func() error {
		start := time.Now()
		if err := snapshot.Rewrite(fp, ft, idx, meta); err != nil {
			return err
		}
		if err := fp.CommitJournal(); err != nil {
			return err
		}
		row.Flushes++
		row.FlushTime += time.Since(start)
		return nil
	}

	per := (len(pending) + updateRounds - 1) / updateRounds
	for r := 0; r < updateRounds; r++ {
		lo, hi := r*per, (r+1)*per
		if hi > len(pending) {
			hi = len(pending)
		}
		for i, it := range pending[lo:hi] {
			if _, err := idx.Insert(it.Rect, it.Object); err != nil {
				return row, err
			}
			row.Inserts++
			// Delete every fifth freshly inserted object again: churn that
			// exercises condensation, free pages, and lazy clip handling.
			if i%5 == 4 {
				if _, err := idx.Delete(it.Rect, it.Object); err != nil {
					return row, err
				}
				row.Deletes++
			}
		}
		before := ft.Counter().Snapshot()
		for _, q := range batch {
			idx.Search(q, func(rtree.ObjectID, geom.Rect) bool { row.Results++; return true })
		}
		d := storage.Diff(before, ft.Counter().Snapshot())
		row.SearchLeaf += d.LeafReads
		row.SearchDir += d.DirReads
		if err := flush(); err != nil {
			return row, err
		}
	}
	if err := ft.Err(); err != nil {
		return row, err
	}
	row.Writes = ft.Counter().Snapshot().Writes
	stats := idx.Stats()
	row.Reclips = stats.TotalReclips()
	row.ValidityChecks = stats.ValidityChecks
	row.AvoidedReclips = stats.AvoidedReclips
	row.DiskReads, row.DiskWrites = fp.DiskStats()
	return row, nil
}

// Table renders the update workload with plain and clipped runs side by
// side per dataset.
func (r *UpdateWorkloadResult) Table() *Table {
	t := NewTable(
		fmt.Sprintf("Update workload on writable file-backed trees (RR*-tree, %d objects, %d rounds, %d QR1 queries per round)",
			r.Scale, r.Rounds, r.Queries),
		"dataset", "mode", "inserts", "deletes", "search leaf", "search dir",
		"reclips", "checks", "avoided", "disk W", "flush ms",
	)
	for _, row := range r.Rows {
		mode := "plain"
		if row.Clipped {
			mode = "CSTA"
		}
		t.AddRow(row.Dataset, mode, row.Inserts, row.Deletes,
			row.SearchLeaf, row.SearchDir,
			row.Reclips, row.ValidityChecks, row.AvoidedReclips,
			row.DiskWrites, fmt.Sprintf("%.1f", float64(row.FlushTime.Microseconds())/1e3))
	}
	t.AddNote("90%% bulk-built and snapshotted; the rest arrives in rounds of insert+delete churn, a QR1 query batch, and a WAL-committed flush")
	t.AddNote("search leaf/dir are the logical accesses of the query batches only; disk W counts pages physically written back by flushes")
	return t
}
