// Command cbbinspect builds a (clipped) R-tree over one of the synthetic
// datasets — or, with -file, loads a previously saved snapshot — and prints
// its structural statistics: height, node counts, occupancy, dead space,
// clip-point counts and storage breakdown. It also verifies the structural
// invariants of the tree and the soundness of every clip point, making it a
// quick health check for the index implementation and for snapshot files.
//
// Usage:
//
//	cbbinspect -dataset axo03 -n 50000 -variant RR*-tree -clip CSTA
//	cbbinspect -file index.cbb
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/experiments"
	"cbb/internal/metrics"
	"cbb/internal/rtree"
	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

func main() {
	var (
		name    = flag.String("dataset", "rea02", "dataset to index")
		n       = flag.Int("n", 20000, "number of objects")
		seed    = flag.Int64("seed", 42, "random seed")
		variant = flag.String("variant", "RR*-tree", "R-tree variant (QR-tree, HR-tree, R*-tree, RR*-tree)")
		clip    = flag.String("clip", "CSTA", "clipping method (CSKY, CSTA, none)")
		k       = flag.Int("k", 0, "max clip points per node (0 = 2^(d+1))")
		tau     = flag.Float64("tau", 0.025, "clip-point volume threshold")
		samples = flag.Int("samples", 256, "Monte-Carlo samples per node")
		file    = flag.String("file", "", "inspect a snapshot file instead of building an index")
		verify  = flag.Bool("verify", false, "with -file: walk the free-page list and WAL tail, report orphaned or doubly-referenced pages")
		rewrite = flag.String("rewrite", "", "with -file: transcode the snapshot to the given format (v1 or v2) and exit")
		out     = flag.String("out", "", "with -rewrite/-compact: output path (default: rewrite the file in place)")
		compact = flag.Bool("compact", false, "with -file: rewrite the snapshot in its current format (dense page layout, WAL folded in) and exit")
	)
	flag.Parse()

	if (*rewrite != "" || *compact) && *file == "" {
		fatal(fmt.Errorf("-rewrite and -compact require -file"))
	}
	if *rewrite != "" || *compact {
		if err := transcodeSnapshot(*file, *out, *rewrite, *compact); err != nil {
			fatal(err)
		}
		return
	}
	if *file != "" {
		if err := inspectSnapshot(*file, *samples, *seed, *verify); err != nil {
			fatal(err)
		}
		return
	}
	if *verify {
		fatal(fmt.Errorf("-verify requires -file"))
	}

	v, err := parseVariant(*variant)
	if err != nil {
		fatal(err)
	}
	cfg := experiments.Config{Scale: *n, Seed: *seed, SamplesPerNode: *samples, Tau: *tau}
	ds, err := cfg.WithDefaults().LoadDataset(*name)
	if err != nil {
		fatal(err)
	}
	tree, buildTime, err := experiments.BuildTree(ds, v)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset    : %s (%d objects, %dd)\n", *name, len(ds.Items), ds.Spec.Dims)
	fmt.Printf("variant    : %s (built in %s)\n", v, buildTime.Round(1e6))

	method, enabled := parseClip(*clip)
	var idx *clipindex.Index
	if enabled {
		kk := *k
		if kk == 0 {
			kk = 1 << uint(ds.Spec.Dims+1)
		}
		start := time.Now()
		idx, err = clipindex.New(tree, core.Params{K: kk, Tau: *tau, Method: method})
		if err != nil {
			fatal(err)
		}
		// The numerator of the paper's Figure 14: what clipping adds to the
		// build, beside the tree's own time above.
		clipTime := time.Since(start)
		dir, leaf := tree.NodeCount()
		fmt.Printf("clip build : %s (%.0f ns/object, %d nodes, %d workers)\n", clipTime.Round(1e6),
			float64(clipTime.Nanoseconds())/float64(max(len(ds.Items), 1)), dir+leaf, clipindex.BuildWorkers(dir+leaf))
	}
	if err := inspectTree(tree, idx, *samples, *seed); err != nil {
		fatal(err)
	}
}

// inspectSnapshot loads a snapshot file and runs the same inspection as the
// build path, so a shipped index file gets the full health check without a
// rebuild. With verify it additionally audits the page file itself: every
// in-use page must be referenced exactly once (superblock, node page, node
// index, or clip table), the free-page list must be disjoint from the
// referenced set, and a leftover write-ahead log is decoded and reported.
//
// The file is opened strictly read-only: inspection never modifies the
// snapshot, and a pending write-ahead log is reported — and replayed only
// into memory, so reads see the committed state — but never consumed.
// (Previously the inspector opened read-write, which replayed and deleted a
// pending WAL as a side effect of merely looking at the file.)
func inspectSnapshot(path string, samples int, seed int64, verify bool) error {
	walState := describeWAL(storage.WALPathFor(path))
	snap, fp, err := snapshot.OpenFile(path, true)
	if err != nil {
		return err
	}
	defer fp.Close()
	tree, err := snap.LoadTree(fp)
	if err != nil {
		return err
	}
	m := snap.Meta
	fmt.Printf("snapshot   : %s (format v%d, %d B pages)\n", path, m.Format, m.PageSize)
	fmt.Printf("contents   : %d objects, %dd, M=%d m=%d\n", m.Objects, m.Dims, m.MaxEntries, m.MinEntries)
	fmt.Printf("variant    : %s\n", m.Variant)
	if err := reportCompression(path, snap, fp, tree); err != nil {
		return err
	}
	var idx *clipindex.Index
	if params, ok := m.ClipParams(); ok {
		idx, err = clipindex.Restore(tree, params, snap.Table)
		if err != nil {
			return err
		}
	}
	if err := inspectTree(tree, idx, samples, seed); err != nil {
		return err
	}
	if verify {
		return verifyFile(snap, fp, walState)
	}
	return nil
}

// transcodeSnapshot implements -rewrite/-compact: a streaming format
// conversion (or same-format compaction) via snapshot.Transcode.
func transcodeSnapshot(path, out, format string, compact bool) error {
	var target int
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "":
		if !compact {
			return fmt.Errorf("-rewrite needs a format (v1 or v2)")
		}
		snap, fp, err := snapshot.OpenFile(path, true)
		if err != nil {
			return err
		}
		target = snap.Meta.Format
		fp.Close()
	case "v1", "1":
		target = snapshot.FormatV1
	case "v2", "2":
		target = snapshot.FormatV2
	default:
		return fmt.Errorf("unknown format %q (want v1 or v2)", format)
	}
	if out == "" {
		out = path
	}
	before, err := os.Stat(path)
	if err != nil {
		return err
	}
	if err := snapshot.Transcode(path, out, target); err != nil {
		return err
	}
	after, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("transcoded : %s (%d B) -> %s (format v%d, %d B, %.1f%%)\n",
		path, before.Size(), out, target, after.Size(), 100*float64(after.Size())/float64(before.Size()))
	return nil
}

// reportCompression prints the per-level storage breakdown of a snapshot
// file: node counts, encoded payload bytes (every node page is read back and
// CRC-verified in the process), and — for compressed snapshots — the raw-leaf
// fallback count, quantisation width, and a histogram of the conservative
// slack that directory-rectangle quantisation added (measured against each
// child's exact MBB, as relative margin increase).
func reportCompression(path string, snap *snapshot.Snapshot, fp *storage.FilePager, tree *rtree.Tree) error {
	if len(snap.Pages) == 0 {
		return nil
	}
	codec := snap.Meta.Codec()
	type lvl struct {
		nodes, entries, rawLeaves int
		bytes                     int64
	}
	levels := map[int]*lvl{}
	maxLevel := 0
	for _, pid := range snap.Pages {
		buf, _, err := fp.Read(pid)
		if err != nil {
			return fmt.Errorf("reading node page %d: %w", pid, err)
		}
		st, err := rtree.InspectNodePage(buf, snap.Meta.Dims, codec)
		if err != nil {
			return fmt.Errorf("decoding node page %d: %w", pid, err)
		}
		l := levels[st.Level]
		if l == nil {
			l = &lvl{}
			levels[st.Level] = l
		}
		l.nodes++
		l.entries += st.Entries
		l.bytes += int64(st.Bytes)
		if st.RawLeaf {
			l.rawLeaves++
		}
		if st.Level > maxLevel {
			maxLevel = st.Level
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if snap.Meta.Objects > 0 {
		fmt.Printf("file size  : %d B (%.1f B/object)\n", fi.Size(), float64(fi.Size())/float64(snap.Meta.Objects))
	}
	// In-memory filter layer per level: every faulted node carries packed
	// PlaneBits-wide SoA planes alongside its exact rects (see
	// internal/rtree/quant.go), so the resident footprint per level is the
	// encoded page bytes plus these plane bytes.
	planeBytes := map[int]int{}
	tree.Walk(func(info rtree.NodeInfo) { planeBytes[info.Level] += info.PlaneBytes })
	for level := maxLevel; level >= 0; level-- {
		l := levels[level]
		if l == nil {
			continue
		}
		line := fmt.Sprintf("level %-2d   : %d nodes, %d entries, %d B encoded (%.1f B/entry)",
			level, l.nodes, l.entries, l.bytes, float64(l.bytes)/float64(max(l.entries, 1)))
		if codec == rtree.CodecV2 {
			if level == 0 && l.rawLeaves > 0 {
				line += fmt.Sprintf(", %d raw-fallback leaves", l.rawLeaves)
			}
			if level > 0 {
				line += fmt.Sprintf(", %d-bit quantised", rtree.DirQuantBits)
			}
		}
		line += fmt.Sprintf(", %d-bit planes %d B in-mem", rtree.PlaneBits, planeBytes[level])
		fmt.Println(line)
	}
	if codec == rtree.CodecV2 {
		reportSlack(tree)
	}
	return nil
}

// reportSlack histograms the conservative expansion of quantised directory
// rectangles: for every directory entry, the relative margin increase of the
// decoded rectangle over the child's exact MBB.
func reportSlack(tree *rtree.Tree) {
	// Buckets: exact, <1e-9, <1e-6, <1e-3, >=1e-3 relative margin slack.
	var buckets [5]int
	total := 0
	tree.Walk(func(info rtree.NodeInfo) {
		if info.Leaf {
			return
		}
		for i := 0; i < info.Len(); i++ {
			child, err := tree.Node(info.Child(i))
			if err != nil {
				continue
			}
			total++
			pm, cm := info.Rect(i).Margin(), child.MBB.Margin()
			var rel float64
			if cm > 0 {
				rel = (pm - cm) / cm
			} else if pm > 0 {
				rel = 1 // degenerate child (a point); any expansion is "large"
			}
			switch {
			case rel <= 0:
				buckets[0]++
			case rel < 1e-9:
				buckets[1]++
			case rel < 1e-6:
				buckets[2]++
			case rel < 1e-3:
				buckets[3]++
			default:
				buckets[4]++
			}
		}
	})
	if total == 0 {
		return
	}
	fmt.Printf("quant slack: %d dir entries: %.1f%% exact, %.1f%% <1e-9, %.1f%% <1e-6, %.1f%% <1e-3, %.1f%% larger (relative margin)\n",
		total,
		100*float64(buckets[0])/float64(total), 100*float64(buckets[1])/float64(total),
		100*float64(buckets[2])/float64(total), 100*float64(buckets[3])/float64(total),
		100*float64(buckets[4])/float64(total))
}

// describeWAL summarises the state of a write-ahead log file at path.
func describeWAL(walPath string) string {
	info, err := storage.ReadWALFile(walPath)
	switch {
	case err == nil:
		return fmt.Sprintf("committed transaction pending replay (%d page records, %d slots; inspection reads the committed state, the log is left for the next writable open)", len(info.Records), info.SlotCount)
	case os.IsNotExist(err):
		return "none (clean shutdown)"
	case errors.Is(err, storage.ErrWALTorn):
		return "torn (interrupted before commit; will be discarded by the next writable open)"
	default:
		return fmt.Sprintf("invalid: %v", err)
	}
}

// verifyFile walks the page file's slot directory against the snapshot's
// page accounting: the superblock, every node page, and the chunked node
// index and clip table regions. Every in-use page must be referenced exactly
// once; every referenced page must be in use; everything else must be on the
// free-page list. Violations are listed and reported as an error.
func verifyFile(snap *snapshot.Snapshot, fp *storage.FilePager, walState string) error {
	refs := make(map[storage.PageID]int)
	refs[snapshot.SuperPage]++
	for _, pid := range snap.Pages {
		refs[pid]++
	}
	lay := snap.Layout
	for i := 0; i < lay.IndexPages; i++ {
		refs[lay.IndexFirst+storage.PageID(i)]++
	}
	for i := 0; i < lay.ClipPages; i++ {
		refs[lay.ClipFirst+storage.PageID(i)]++
	}
	slots, err := fp.Slots()
	if err != nil {
		return err
	}
	var orphaned, doubly, freeRef, missing []storage.PageID
	freePages := 0
	for _, s := range slots {
		n := refs[s.ID]
		switch {
		case s.InUse && n == 0:
			orphaned = append(orphaned, s.ID)
		case s.InUse && n > 1:
			doubly = append(doubly, s.ID)
		case !s.InUse && n > 0:
			freeRef = append(freeRef, s.ID)
		}
		if !s.InUse {
			freePages++
		}
	}
	for pid, n := range refs {
		if pid < 1 || int(pid) > len(slots) {
			missing = append(missing, pid)
			_ = n
		}
	}
	fmt.Printf("page file  : %d slots, %d in use, %d on the free-page list\n", len(slots), len(slots)-freePages, freePages)
	fmt.Printf("WAL tail   : %s\n", walState)
	problems := 0
	report := func(label string, ids []storage.PageID) {
		if len(ids) == 0 {
			return
		}
		problems += len(ids)
		if len(ids) > 8 {
			fmt.Printf("verify     : %d %s pages (first 8: %v)\n", len(ids), label, ids[:8])
		} else {
			fmt.Printf("verify     : %s pages: %v\n", label, ids)
		}
	}
	report("orphaned (in use but unreferenced)", orphaned)
	report("doubly-referenced", doubly)
	report("referenced-but-free", freeRef)
	report("referenced-but-missing", missing)
	if problems > 0 {
		return fmt.Errorf("page file verification found %d problem pages", problems)
	}
	fmt.Println("verify     : free-page list and page references consistent")
	return nil
}

// inspectTree prints structure, dead space, clipping, and storage breakdown
// for a tree with an optional clip index, validating both along the way.
func inspectTree(tree *rtree.Tree, idx *clipindex.Index, samples int, seed int64) error {
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("tree invariants violated: %w", err)
	}
	stats := tree.Stats()
	fmt.Printf("height     : %d\n", stats.Height)
	fmt.Printf("nodes      : %d directory, %d leaf\n", stats.DirNodes, stats.LeafNodes)
	fmt.Printf("occupancy  : %.1f%% leaf, %.1f%% directory\n", 100*stats.AvgLeafOcc, 100*stats.AvgDirOcc)

	node := metrics.TreeNodeStats(tree, samples, seed)
	fmt.Printf("overlap    : %.1f%% of node volume covered by 2+ children\n", 100*node.AvgOverlap)
	fmt.Printf("dead space : %.1f%% of node volume (%.1f%% at leaves)\n", 100*node.AvgDeadSpace, 100*node.AvgLeafDeadSpace)

	// The clip-table footprint below comes from clipindex.TableBytes (via
	// AuxBytes), the same helper behind the public Stats.ClipTableBytes, so
	// the inspector can never disagree with the library's own accounting.
	clipBytes := 0
	if idx == nil {
		fmt.Println("clipping   : disabled")
	} else {
		if err := idx.Validate(); err != nil {
			return fmt.Errorf("clip table invalid: %w", err)
		}
		cs := metrics.ClippedDeadSpace(idx, samples, seed)
		params := idx.Params()
		clipBytes = idx.AuxBytes()
		fmt.Printf("clipping   : %s, k=%d, tau=%.3f\n", params.Method, params.K, params.Tau)
		snap := idx.Snap()
		nodes, points, _ := snap.ClipStats()
		resident := snap.ResidentBytes()
		fmt.Printf("clip points: %d total, %.1f per clipped node, %d bytes\n", points, float64(points)/float64(max(nodes, 1)), clipBytes)
		fmt.Printf("clip store : %d records, %d clip points, %d bytes resident (%.1f per clip point)\n",
			nodes, points, resident, float64(resident)/float64(max(points, 1)))
		fmt.Printf("clipped    : %.1f%% of node volume (%.1f%% of the dead space)\n",
			100*cs.AvgClipped, 100*cs.ClippedShareOfDead)
	}

	if tree.Len() == 0 {
		fmt.Println("storage    : empty tree, no pages")
	} else {
		pager := storage.NewPager(storage.DefaultPageSize)
		if _, err := tree.Save(pager, rtree.CodecV1); err != nil {
			return err
		}
		u := pager.Usage()
		fmt.Printf("storage    : %d dir B, %d leaf B, %d clip B (%.2f%% overhead)\n",
			u.Bytes[storage.KindDirectory], u.Bytes[storage.KindLeaf], clipBytes,
			100*float64(clipBytes)/float64(u.TotalBytes+clipBytes))
	}
	fmt.Println("status     : all invariants hold")
	return nil
}

func parseVariant(s string) (rtree.Variant, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "qr-tree", "qr", "quadratic":
		return rtree.Quadratic, nil
	case "hr-tree", "hr", "hilbert":
		return rtree.Hilbert, nil
	case "r*-tree", "r*", "rstar":
		return rtree.RStar, nil
	case "rr*-tree", "rr*", "rrstar":
		return rtree.RRStar, nil
	default:
		return 0, fmt.Errorf("unknown variant %q", s)
	}
}

func parseClip(s string) (core.Method, bool) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "CSKY", "SKYLINE", "SKY":
		return core.MethodSkyline, true
	case "CSTA", "STAIRLINE", "STA":
		return core.MethodStairline, true
	default:
		return 0, false
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbbinspect:", err)
	os.Exit(1)
}
