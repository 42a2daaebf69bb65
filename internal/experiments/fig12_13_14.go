package experiments

import (
	"time"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// Fig12Row is one bar of Figure 12: the expected number of clip-table
// recomputations per insertion, decomposed by cause, for one
// (dataset, variant) pair.
type Fig12Row struct {
	Dataset          string
	Variant          string
	Inserts          int
	ReclipsPerInsert float64
	// Per-insert contributions of the three causes (they sum to
	// ReclipsPerInsert).
	SplitsPerInsert  float64
	MBBPerInsert     float64
	CBBOnlyPerInsert float64
	AvoidedPerInsert float64
}

// Fig12Result reproduces Figure 12 (update cost).
type Fig12Result struct {
	Rows []Fig12Row
}

// RunFig12 bulk-builds each clipped tree on 90 % of the data and then
// inserts the remaining 10 % through the clipped index, recording how many
// re-clips each insertion caused and why.
func RunFig12(cfg Config) (*Fig12Result, error) {
	cfg = cfg.WithDefaults()
	out := &Fig12Result{}
	for _, name := range cfg.Datasets {
		ds, err := cfg.LoadDataset(name)
		if err != nil {
			return nil, err
		}
		for _, v := range cfg.Variants {
			tree, rest, err := BuildTreePartial(ds, v, 0.9)
			if err != nil {
				return nil, err
			}
			idx, _, err := cfg.ClipTree(tree, core.MethodStairline)
			if err != nil {
				return nil, err
			}
			var s clipindex.UpdateStats
			for _, it := range rest {
				u, err := idx.Insert(it.Rect, it.Object)
				if err != nil {
					return nil, err
				}
				s = s.Add(u)
			}
			n := float64(s.Inserts)
			if n == 0 {
				n = 1
			}
			out.Rows = append(out.Rows, Fig12Row{
				Dataset:          name,
				Variant:          v.String(),
				Inserts:          s.Inserts,
				ReclipsPerInsert: s.ReclipsPerInsert(),
				SplitsPerInsert:  float64(s.ReclipsBySplit) / n,
				MBBPerInsert:     float64(s.ReclipsByMBB) / n,
				CBBOnlyPerInsert: float64(s.ReclipsByCBB) / n,
				AvoidedPerInsert: float64(s.AvoidedReclips) / n,
			})
		}
	}
	return out, nil
}

// Table renders Figure 12.
func (r *Fig12Result) Table() *Table {
	t := NewTable("Figure 12: expected number of re-clipped CBBs per insertion (CSTA)",
		"dataset", "variant", "reclips/insert", "splits", "MBB changes", "CBB-only", "avoided checks")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Variant, row.ReclipsPerInsert,
			row.SplitsPerInsert, row.MBBPerInsert, row.CBBOnlyPerInsert, row.AvoidedPerInsert)
	}
	return t
}

// Fig13Row is one bar of Figure 13: the storage breakdown of a clipped
// RR*-tree for one dataset and clipping method.
type Fig13Row struct {
	Dataset       string
	Method        string
	DirBytes      int
	LeafBytes     int
	ClipBytes     int
	ClipShare     float64 // clip bytes / total bytes
	AvgClipPoints float64
}

// Fig13Result reproduces Figure 13 (storage overhead).
type Fig13Result struct {
	Rows []Fig13Row
}

// RunFig13 serialises the clipped RR*-tree of every dataset onto an in-memory
// page file and decomposes the bytes into directory nodes, leaf nodes, and
// clip points.
func RunFig13(cfg Config) (*Fig13Result, error) {
	cfg = cfg.WithDefaults()
	out := &Fig13Result{}
	for _, name := range cfg.Datasets {
		ds, err := cfg.LoadDataset(name)
		if err != nil {
			return nil, err
		}
		tree, err := cfg.BuildTree(ds, rtree.RRStar)
		if err != nil {
			return nil, err
		}
		for _, method := range []core.Method{core.MethodSkyline, core.MethodStairline} {
			idx, _, err := cfg.ClipTree(tree, method)
			if err != nil {
				return nil, err
			}
			img := storage.NewImage(storage.DefaultPageSize)
			if _, err := tree.Save(img, rtree.CodecV1); err != nil {
				return nil, err
			}
			if _, err := idx.SaveAux(img); err != nil {
				return nil, err
			}
			usage := img.Usage()
			total := usage.TotalBytes
			clipShare := 0.0
			if total > 0 {
				clipShare = float64(usage.Bytes[storage.KindAux]) / float64(total)
			}
			nodes, points, _ := idx.Snap().ClipStats()
			out.Rows = append(out.Rows, Fig13Row{
				Dataset:       name,
				Method:        method.String(),
				DirBytes:      usage.Bytes[storage.KindDirectory],
				LeafBytes:     usage.Bytes[storage.KindLeaf],
				ClipBytes:     usage.Bytes[storage.KindAux],
				ClipShare:     clipShare,
				AvgClipPoints: float64(points) / float64(max(nodes, 1)),
			})
		}
	}
	return out, nil
}

// Table renders Figure 13.
func (r *Fig13Result) Table() *Table {
	t := NewTable("Figure 13: storage breakdown of clipped RR*-trees",
		"dataset", "method", "dir bytes", "leaf bytes", "clip bytes", "clip share", "avg clips/node")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Method, row.DirBytes, row.LeafBytes, row.ClipBytes,
			Pct(row.ClipShare), row.AvgClipPoints)
	}
	return t
}

// Fig14Row is one bar of Figure 14: build time of a variant relative to the
// unclipped RR*-tree, with the CBB-computation share for the clipped bars.
type Fig14Row struct {
	Dataset       string
	Label         string
	BuildTime     time.Duration
	ClipTime      time.Duration
	RelativeToRR  float64 // (build+clip) / unclipped RR*-tree build
	ClipShareOfIt float64 // clip / (build+clip)
}

// Fig14Result reproduces Figure 14 (construction overhead).
type Fig14Result struct {
	Rows []Fig14Row
}

// RunFig14 measures wall-clock build time of the HR-tree, R*-tree, and
// CSKY-/CSTA-clipped RR*-trees relative to the plain RR*-tree.
func RunFig14(cfg Config) (*Fig14Result, error) {
	cfg = cfg.WithDefaults()
	out := &Fig14Result{}
	for _, name := range cfg.Datasets {
		ds, err := cfg.LoadDataset(name)
		if err != nil {
			return nil, err
		}
		// This experiment measures construction cost, so it must always
		// build from scratch: the snapshot cache (cbbench -load) would
		// silently replace build times with near-constant load times and
		// collapse the relative columns.
		rrTree, rrTime, err := BuildTree(ds, rtree.RRStar)
		if err != nil {
			return nil, err
		}
		base := rrTime.Seconds()
		if base <= 0 {
			base = 1e-9
		}
		_, hrTime, err := BuildTree(ds, rtree.Hilbert)
		if err != nil {
			return nil, err
		}
		_, rstarTime, err := BuildTree(ds, rtree.RStar)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows,
			Fig14Row{Dataset: name, Label: "HR-tree", BuildTime: hrTime, RelativeToRR: hrTime.Seconds() / base},
			Fig14Row{Dataset: name, Label: "R*-tree", BuildTime: rstarTime, RelativeToRR: rstarTime.Seconds() / base},
		)
		for _, method := range []core.Method{core.MethodSkyline, core.MethodStairline} {
			_, clipTime, err := cfg.ClipTree(rrTree, method)
			if err != nil {
				return nil, err
			}
			total := rrTime + clipTime
			label := "CSKY-RR*-tree"
			if method == core.MethodStairline {
				label = "CSTA-RR*-tree"
			}
			out.Rows = append(out.Rows, Fig14Row{
				Dataset:       name,
				Label:         label,
				BuildTime:     rrTime,
				ClipTime:      clipTime,
				RelativeToRR:  total.Seconds() / base,
				ClipShareOfIt: clipTime.Seconds() / total.Seconds(),
			})
		}
	}
	return out, nil
}

// Table renders Figure 14.
func (r *Fig14Result) Table() *Table {
	t := NewTable("Figure 14: index building and CBB computation overhead (relative to unclipped RR*-tree)",
		"dataset", "index", "build", "clip", "relative", "clip share")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Label,
			row.BuildTime.Round(time.Millisecond).String(),
			row.ClipTime.Round(time.Millisecond).String(),
			Pct(row.RelativeToRR), Pct(row.ClipShareOfIt))
	}
	return t
}
