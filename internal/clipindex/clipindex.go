// Package clipindex plugs clipped bounding boxes (internal/core) into any
// R-tree variant (internal/rtree), following Section IV of the paper:
//
//   - the clip points of every node live in an auxiliary table keyed by node
//     id (Figure 4b), fully separate from the node pages — on disk, the
//     snapshot's clip table; in memory, the record in the node's slot of the
//     tree's versioned node directory, beside the node, so a query can test
//     a child before reading it — and, derived from the records, a packed
//     copy on the parent's 16-bit grid (rtree's quant.go), from which the
//     query decides nearly every child without the record;
//   - queries run the unmodified R-tree descent but consult Algorithm 2
//     before visiting a child node, skipping children whose overlap with the
//     query is entirely clipped dead space;
//   - insertions keep the store consistent with the eager validity check of
//     Section IV-D (re-clip only when a clip point would clip the new
//     object, the node split, or the node's MBB changed);
//   - deletions are handled lazily (clip points only become more
//     conservative when data disappears) unless the MBB changes.
//
// There is one resident representation of clip points: per node id one
// core.Record (which see: corner-normalised, flat, bit-exact both ways,
// never written once installed). The range-search descent, the joins and the
// writer's validity checks read the records directly; the maintenance writes
// them into the writer's directory (rtree.Tree.SetRecord), and a commit
// publishes them with the nodes they describe, as one tree version — the
// version a Snap is. On disk they are the snapshot's clip section, which
// DecodeClips reads into the same records (a Table) and EncodeClips writes
// from them.
package clipindex

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"sync"

	"cbb/internal/core"
	"cbb/internal/fanout"
	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// Table is the auxiliary clip-point table of Figure 4b as a snapshot's clip
// section decodes: node id → the node's clip record. A node with no entry
// simply has no clip points. Opening the snapshot hands the records to the
// tree as they are (snapshot.OpenTree, LoadTree).
type Table map[rtree.NodeID]core.Record

// UpdateStats is the tally of a clip-layer mutation: Insert, InsertItems
// and Delete each return theirs, and the update experiment sums them with
// Add. The reclips are split by the three causes of Figure 12 — a node split
// or created (its contents changed wholesale), a node whose MBB changed, and
// a node whose MBB did not change but whose clip points the placed rectangle
// invalidated (Algorithm 2 with the insert selector); a deletion's reclips
// count as MBB changes or, for a re-inserted entry or a grown child reaching
// into clipped dead space, as CBB changes.
type UpdateStats struct {
	Inserts         int
	Deletes         int // 1 when Delete found its object
	Writes          int // node writes of the tree mutation
	ReclipsBySplit  int
	ReclipsByMBB    int
	ReclipsByCBB    int
	ValidityChecks  int
	AvoidedReclips  int // validity check passed, clip table kept as-is
	DeletesNoReclip int // deletions absorbed lazily
}

// Add returns the field-wise sum of two tallies.
func (u UpdateStats) Add(o UpdateStats) UpdateStats {
	return UpdateStats{
		Inserts:         u.Inserts + o.Inserts,
		Deletes:         u.Deletes + o.Deletes,
		Writes:          u.Writes + o.Writes,
		ReclipsBySplit:  u.ReclipsBySplit + o.ReclipsBySplit,
		ReclipsByMBB:    u.ReclipsByMBB + o.ReclipsByMBB,
		ReclipsByCBB:    u.ReclipsByCBB + o.ReclipsByCBB,
		ValidityChecks:  u.ValidityChecks + o.ValidityChecks,
		AvoidedReclips:  u.AvoidedReclips + o.AvoidedReclips,
		DeletesNoReclip: u.DeletesNoReclip + o.DeletesNoReclip,
	}
}

// TotalReclips returns all clip-table recomputations.
func (u UpdateStats) TotalReclips() int {
	return u.ReclipsBySplit + u.ReclipsByMBB + u.ReclipsByCBB
}

// ReclipsPerInsert returns the expected number of re-clips per insertion
// (the y-axis of Figure 12).
func (u UpdateStats) ReclipsPerInsert() float64 {
	if u.Inserts == 0 {
		return 0
	}
	return float64(u.TotalReclips()) / float64(u.Inserts)
}

// Index is a clipped R-tree: an rtree.Tree of any variant plus the clip
// records of its nodes and the parameters used to maintain them. The records
// live in the tree's node directory, so a mutation and its record maintenance
// publish as one version — one writer batch — and a reader's one load per
// query yields nodes and clip points of the same epoch. The index keeps no
// published state of its own: its snapshot is the tree's current version. A
// tree holds one set of records: a later New over it replaces them for every
// index over the tree.
type Index struct {
	tree   *rtree.Tree
	params core.Params
}

// Snap is one published version of a clipped tree — the tree's version
// itself, read with its clip records: what every clipped query and join runs
// against, from any number of goroutines. A plain R-tree is a Snap whose
// version has no records.
type Snap rtree.Version

// Version returns the tree version the snapshot is.
func (s *Snap) Version() *rtree.Version { return (*rtree.Version)(s) }

// Record returns the clip record of the node at the snapshot's epoch (nil
// when it has no clip points); joins test it with core.Record.Dead.
func (s *Snap) Record(id rtree.NodeID) core.Record { return s.Version().Record(id) }

// Clips materialises the clip points of the node at the snapshot's epoch
// (nil when it has none), for inspection; nothing on a query path calls it.
func (s *Snap) Clips(id rtree.NodeID) []core.ClipPoint {
	return s.Record(id).Points(s.Version().Dims())
}

// SearchCounted finds every object intersecting q at the snapshot's epoch,
// using its clip points to skip child nodes whose overlap with q is entirely
// dead space, and charges the node accesses to c (the tree's own counter
// when c is nil). It returns what it charged, and the fault that ended it.
func (s *Snap) SearchCounted(q geom.Rect, c *storage.Counter, visit func(rtree.ObjectID, geom.Rect) bool) (storage.Snapshot, error) {
	io, err := s.Version().SearchClipped(q, visit)
	if c == nil {
		c = s.Version().Tree().Counter()
	}
	c.Add(io)
	return io, err
}

// NearestNeighbors is rtree.NearestNeighbors over the snapshots — one tree,
// or the shards of one index — with their clip records lifting its bounds.
// It returns the node accesses it charged and any fault beside the neighbours.
func NearestNeighbors(k int, p geom.Point, snaps ...*Snap) ([]rtree.Neighbor, storage.Snapshot, error) {
	var buf [8]rtree.KNNSource // on the stack for up to eight shards
	srcs := buf[:0]
	for _, s := range snaps {
		srcs = append(srcs, rtree.KNNSource{Version: s.Version(), Clipped: true})
	}
	return rtree.NearestNeighbors(k, p, srcs...)
}

// ClipStats counts the snapshot's clip records: the nodes that have clip
// points, the clip points in total, and the exact size the table serialises
// to (0 for an empty table, which snapshots omit altogether).
func (s *Snap) ClipStats() (nodes, points, bytes int) {
	return clipStats(s.Version().Records(), s.Version().Dims())
}

// ResidentBytes returns the heap the snapshot's clip points occupy: the
// records themselves (their slots in the node directory are the tree's).
func (s *Snap) ResidentBytes() int {
	n := 0
	for _, rec := range s.Version().Records() {
		n += 8 * cap(rec)
	}
	return n
}

func clipStats(recs iter.Seq2[rtree.NodeID, core.Record], dims int) (nodes, points, bytes int) {
	for _, rec := range recs {
		nodes++
		points += rec.Len(dims)
	}
	if nodes > 0 {
		bytes = tableBytes(nodes, points, dims)
	}
	return nodes, points, bytes
}

// mutate applies one tree mutation and then the maintenance step it returns,
// in the tree's open batch (whose Commit publishes) or in one of its own,
// committed on success and rolled back on failure. With K == 0 core.Clip never
// yields a clip point, so the step is skipped whole: a plain R-tree. Both
// tally into the returned UpdateStats: apply the tree mutation's writes, which
// the tree charged, and the step its reclips, which mutate charges to the
// tree's counter once, when the step ends.
func (x *Index) mutate(apply func(u *UpdateStats) (step func() error, err error)) (u UpdateStats, err error) {
	own := !x.tree.InBatch()
	if own {
		if err := x.tree.BeginBatch(); err != nil {
			return u, err
		}
	}
	step, err := apply(&u)
	if err == nil && x.params.K != 0 {
		err = step()
		x.tree.Counter().Add(storage.Snapshot{Reclips: int64(u.TotalReclips())})
	}
	switch {
	case own && err != nil:
		x.tree.RollbackBatch()
	case own:
		x.Commit()
	}
	return u, err
}

// Snap returns the current snapshot: the tree's current version, one atomic
// load. A long-lived read view holds it as it is; its tree version never
// reads a page that a later batch frees (see rtree.Version).
func (x *Index) Snap() *Snap { return (*Snap)(x.tree.CurrentVersion()) }

// Begin opens an explicit writer batch on the underlying tree: mutations
// accumulate privately and reach readers only at Commit, as one atomic
// snapshot switch.
func (x *Index) Begin() error { return x.tree.BeginBatch() }

// Commit publishes every mutation since Begin — node and clip state together
// — as one new epoch.
func (x *Index) Commit() { x.tree.CommitBatch() }

// Rollback discards every mutation since Begin: the tree batch is rolled
// back, and with it the records, which live in the tree's directory; nothing
// is rebuilt. Readers never saw any of it. What the mutations charged to the
// tree's counter stays charged: the work was done.
func (x *Index) Rollback() { x.tree.RollbackBatch() }

// New wraps an existing tree (already built, possibly empty) and computes
// clip points for all of its nodes.
func New(tree *rtree.Tree, params core.Params) (*Index, error) {
	x, err := newIndex(tree, params)
	if err != nil {
		return nil, err
	}
	if err := x.RebuildAll(); err != nil {
		return nil, err
	}
	return x, nil
}

// newIndex checks the arguments and makes an index over the tree.
func newIndex(tree *rtree.Tree, params core.Params) (*Index, error) {
	if tree == nil {
		return nil, errors.New("clipindex: tree must not be nil")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Index{tree: tree, params: params}, nil
}

// Restore wraps a tree that already holds a clip table's records — one a
// snapshot opened or loaded with the table it decoded (snapshot.OpenTree,
// LoadTree) — without recomputing or installing anything: the decode path of
// the persistence subsystem. It checks, reading no page and allocating
// nothing, that the tree's records are the table's bit for bit (a nil table:
// no node has clip points), returns an error when they are not, and then
// publishes them.
func Restore(tree *rtree.Tree, params core.Params, table Table) (*Index, error) {
	x, err := newIndex(tree, params)
	if err != nil {
		return nil, err
	}
	n := 0
	for id, rec := range tree.Records() {
		if n++; !slices.EqualFunc(rec, table[id], sameBits) {
			return nil, fmt.Errorf("clipindex: the tree's clip record of node %d is not the table's", id)
		}
	}
	if n != len(table) {
		return nil, fmt.Errorf("clipindex: the tree holds %d clip records, the table %d", n, len(table))
	}
	tree.PublishRecords()
	return x, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Tree and Params return the underlying R-tree and the clipping parameters.
func (x *Index) Tree() *rtree.Tree   { return x.tree }
func (x *Index) Params() core.Params { return x.params }

// RebuildAll recomputes the clip points of every node from scratch
// (Algorithm 1 per node, as when a freshly built R-tree is clipped before its
// nodes are flushed), hydrating a lazily opened tree first, and publishes them
// under the tree's current epoch unless an explicit batch is open.
func (x *Index) RebuildAll() error {
	if err := x.tree.Materialize(); err != nil {
		return err
	}
	if err := x.rebuildTable(); err != nil {
		return err
	}
	if !x.tree.InBatch() {
		x.tree.PublishRecords()
	}
	return nil
}

// rebuildTable drops every record and, unless K == 0, recomputes the record
// of every node. The nodes are collected here, on the writer's goroutine, so
// the build never faults a page from a worker; a node the walk cannot read
// fails the rebuild before anything is clipped.
func (x *Index) rebuildTable() error {
	for id := range x.tree.Records() {
		x.tree.SetRecord(id, nil)
	}
	if x.params.K == 0 {
		return nil
	}
	var infos []rtree.NodeInfo
	if err := x.tree.Walk(func(info rtree.NodeInfo) { infos = append(infos, info) }); err != nil {
		return err
	}
	x.reclip(infos)
	return nil
}

// reclipChunk is the number of nodes a build worker takes at a time: large
// enough that claiming a chunk is noise next to clipping it, small enough
// that a two-level tree still splits into several.
const reclipChunk = 16

// BuildWorkers returns the number of goroutines, the caller's included, that
// clip a set of n nodes: one per chunk up to GOMAXPROCS.
func BuildWorkers(n int) int { return fanout.Workers(0, n, reclipChunk) }

// reclip runs Algorithm 1 on the given nodes and installs the results — the
// one place clip points are computed, whether for the nodes one insert
// invalidated or for every node of a bulk-loaded tree. Algorithm 1 reads
// nothing but one node's child rectangles, so the nodes are clipped in
// chunks by up to GOMAXPROCS workers (the caller being one of them; a single
// chunk starts no goroutine), each with its own scratch and each writing only
// its own nodes' slots of recs. Installation is serial and in the order
// given, so the store does not depend on the worker count or on scheduling.
// The scratch comes from reclipScratch and goes back to it: nothing of a
// build stays on the heap but the records, one allocation per clipped node.
func (x *Index) reclip(infos []rtree.NodeInfo) {
	if len(infos) == 0 {
		return
	}
	recs := make([]core.Record, len(infos))
	fanout.ForEachChunk(len(infos), 0, reclipChunk, func(_, lo, hi int) {
		s := reclipScratch.Get().(*clipScratch)
		defer reclipScratch.Put(s)
		for i := lo; i < hi; i++ {
			info := &infos[i]
			s.children = slices.Grow(s.children[:0], info.Len())
			for j := 0; j < info.Len(); j++ {
				s.children = append(s.children, info.Rect(j))
			}
			recs[i] = s.clipper.Record(info.MBB, s.children, x.params)
		}
	})
	for i := range infos {
		x.tree.SetRecord(infos[i].ID, recs[i])
	}
}

// clipScratch is one worker's scratch for reclip.
type clipScratch struct {
	clipper  core.Clipper
	children []geom.Rect
}

// reclipScratch keeps reclip's scratch between calls, so a write's reclip
// does not regrow it; the collector empties the pool, so an idle index holds
// none of it.
var reclipScratch = sync.Pool{New: func() any { return new(clipScratch) }}

// reclipMarks collects the nodes one maintenance step re-clips — each once,
// in the order marked, tallied under the cause that marked it first — so
// that every decision reads the clip points of nodes not marked yet and the
// marked nodes are re-clipped together at the end, as one build.
type reclipMarks struct {
	pending []rtree.NodeID
	marked  map[rtree.NodeID]bool
}

// mark adds the node unless it is marked already, counting it in cause.
func (r *reclipMarks) mark(id rtree.NodeID, cause *int) {
	if r.marked == nil {
		r.marked = make(map[rtree.NodeID]bool)
	}
	if !r.marked[id] {
		r.marked[id] = true
		r.pending = append(r.pending, id)
		*cause++
	}
}

// reclipByIDs recomputes the clip points of the given nodes in one build,
// looking each node up first (a freed node's slot holds an empty placeholder,
// whose record it clears).
func (x *Index) reclipByIDs(ids []rtree.NodeID) {
	infos := make([]rtree.NodeInfo, 0, len(ids))
	for _, id := range ids {
		if info, err := x.tree.Node(id); err == nil {
			infos = append(infos, info)
		}
	}
	x.reclip(infos)
}

// Search finds every object intersecting q, using clip points to skip child
// nodes whose overlap with q is entirely dead space. Results are identical
// to an unclipped search; only the I/O differs.
//
// It is safe for any number of concurrent readers at any time, including
// while the single writer mutates: the query runs against one atomically
// loaded Snap (immutable tree version + clip records of the same epoch).
func (x *Index) Search(q geom.Rect, visit func(rtree.ObjectID, geom.Rect) bool) {
	x.Snap().SearchCounted(q, nil, visit)
}

// Insert adds an object and maintains the clip table per Section IV-D. It
// returns the call's tally, whose reclips it charged to the tree's counter
// (the tree charged the writes).
func (x *Index) Insert(r geom.Rect, obj rtree.ObjectID) (UpdateStats, error) {
	u, err := x.mutate(func(u *UpdateStats) (func() error, error) {
		trace, err := x.tree.Insert(r, obj)
		if trace != nil {
			u.Writes = trace.Writes
		}
		return func() error { return x.applyInsertTrace(trace, u) }, err
	})
	if err == nil {
		u.Inserts = 1
	}
	return u, err
}

// InsertItems adds a batch of objects through the tree's fast batch-insert
// pipeline and maintains the clip table from the one aggregated trace: each
// structurally changed node is re-clipped once for the whole batch and each
// placement is validity-checked once, instead of paying the per-insert
// maintenance per item. Outside an explicit batch the new version is
// published once, atomically. It returns the call's tally, as Insert does.
func (x *Index) InsertItems(items []rtree.Item) (UpdateStats, error) {
	u, err := x.mutate(func(u *UpdateStats) (func() error, error) {
		trace, err := x.tree.InsertItems(items)
		if trace != nil {
			u.Writes = trace.Writes
		}
		return func() error { return x.applyInsertTrace(trace, u) }, err
	})
	if err == nil {
		u.Inserts = len(items)
	}
	return u, err
}

// applyInsertTrace runs the Section IV-D maintenance for one insertion
// trace — single-insert or batch-aggregated: re-clip split/created/
// MBB-changed nodes, validity-check every placement, and check ancestors of
// grown children — tallying it in u.
func (x *Index) applyInsertTrace(trace *rtree.InsertTrace, u *UpdateStats) error {
	if trace.Rebuilt {
		// The batch rebuilt the tree wholesale: old ids were freed and may
		// have been reused, so stale table entries cannot be patched out
		// incrementally. Recompute the table from scratch, exactly like
		// RebuildAll but publishing through the caller.
		return x.rebuildTable()
	}
	var rc reclipMarks

	// 1. Nodes that were split or created: their content changed wholesale.
	for _, id := range trace.Split {
		rc.mark(id, &u.ReclipsBySplit)
	}
	for _, id := range trace.Created {
		rc.mark(id, &u.ReclipsBySplit)
	}
	// 2. Nodes whose MBB changed: thresholds and orderings are distorted, so
	// the paper recomputes them.
	for _, id := range trace.MBBChanged {
		rc.mark(id, &u.ReclipsByMBB)
	}
	// 3. Every node that received an entry (the target leaf and any node
	// touched by forced reinsertion) but was not structurally changed: run
	// the eager validity check of Algorithm 2 with the insert selector and
	// re-clip only when the placed rectangle reaches into clipped dead
	// space.
	check := func(id rtree.NodeID, r geom.Rect) {
		if broken, checked := x.invalidates(id, r); checked {
			u.ValidityChecks++
			if broken {
				rc.mark(id, &u.ReclipsByCBB)
			} else {
				u.AvoidedReclips++
			}
		}
	}
	for _, pl := range trace.Placements {
		if rc.marked[pl.Node] {
			continue
		}
		if len(x.tree.Record(pl.Node)) == 0 {
			// No clip points can be invalidated, but new dead space might
			// now be clippable; the paper leaves such nodes alone until the
			// next forced recomputation, and so do we.
			u.AvoidedReclips++
			continue
		}
		check(pl.Node, pl.Rect)
	}
	// 4. Ancestors whose own MBB did not change but one of whose children
	// grew (child MBB change could intrude into the parent's clipped
	// corners): validity-check them against the grown child rectangles.
	for _, ids := range [][]rtree.NodeID{trace.MBBChanged, trace.Split, trace.Created} {
		for _, id := range ids {
			// A parent that changed itself is re-clipped via its own cause.
			if info, err := x.tree.Node(id); err == nil && info.Parent != rtree.InvalidNode && !trace.Changed(info.Parent) {
				check(info.Parent, info.MBB)
			}
		}
	}
	x.reclipByIDs(rc.pending)
	return nil
}

// invalidates is the eager validity check of Section IV-D on the node's flat
// record: broken reports whether placing r in the node breaks its clip points
// (the negation of core.ValidAfterInsert). checked is false, and nothing was
// tested, when the node has no clip points or no longer exists.
func (x *Index) invalidates(id rtree.NodeID, r geom.Rect) (broken, checked bool) {
	rec := x.tree.Record(id)
	if len(rec) == 0 {
		return false, false
	}
	info, err := x.tree.Node(id)
	if err != nil {
		return false, false
	}
	var sel core.Sel
	sel.Insert(r)
	return !info.MBB.Intersects(r) || rec.Dead(r.Dims(), &sel), true
}

// Delete removes an object. Deletions are handled lazily: clip points stay
// valid when space only becomes emptier, so the table is touched only for
// nodes whose MBB changed or that were dissolved. It returns the call's
// tally, as Insert does; its Deletes is 1 when the object was found.
func (x *Index) Delete(r geom.Rect, obj rtree.ObjectID) (UpdateStats, error) {
	u, err := x.mutate(func(u *UpdateStats) (func() error, error) {
		trace, err := x.tree.Delete(r, obj)
		if trace != nil {
			u.Writes = trace.Writes
		}
		if err == nil && trace.Found {
			u.Deletes = 1
		}
		return func() error { x.applyDeleteTrace(trace, u); return nil }, err
	})
	return u, err
}

// applyDeleteTrace runs the lazy deletion maintenance for one trace,
// tallying it in u.
func (x *Index) applyDeleteTrace(trace *rtree.DeleteTrace, u *UpdateStats) {
	if !trace.Found {
		return
	}
	// The dissolved nodes' records went with their slots (rtree's freeNode).
	var rc reclipMarks
	for _, id := range trace.MBBChanged {
		rc.mark(id, &u.ReclipsByMBB)
	}
	// Entries re-inserted by the condense step may land in clipped dead
	// space of nodes whose MBB did not change; validity-check each placement
	// just like an insertion.
	for _, pl := range trace.Placements {
		if broken, _ := x.invalidates(pl.Node, pl.Rect); broken {
			rc.mark(pl.Node, &u.ReclipsByCBB)
		}
	}
	// A node whose MBB grew during re-insertion may now intrude into its
	// parent's clipped corners even though the parent's own MBB is
	// unchanged; validity-check those parents as well.
	for _, id := range trace.MBBChanged {
		if info, err := x.tree.Node(id); err == nil && info.Parent != rtree.InvalidNode {
			if broken, _ := x.invalidates(info.Parent, info.MBB); broken {
				rc.mark(info.Parent, &u.ReclipsByCBB)
			}
		}
	}
	x.reclipByIDs(rc.pending)
	if len(rc.pending) == 0 {
		u.DeletesNoReclip++
	}
}

// Validate checks that the clip table is sound: every clip point belongs to
// a live node, lies inside that node's MBB, and clips only dead space. A
// child reaches into a clipped region when it extends strictly past the clip
// point toward the clipped corner in every dimension — Algorithm 2's insert
// selector, and exactly when a query the clip point declares dead could meet
// the child — however thin the child or small the overlap. A child node is
// held to its own exact MBB, not to its entry's rectangle, which a v2
// snapshot quantises outward. It returns the first violation found.
func (x *Index) Validate() error {
	live := make(map[rtree.NodeID]rtree.NodeInfo)
	if err := x.tree.Walk(func(info rtree.NodeInfo) { live[info.ID] = info }); err != nil {
		return err
	}
	for id, rec := range x.tree.Records() {
		clips := rec.Points(x.tree.Dims())
		info, ok := live[id]
		if !ok {
			return fmt.Errorf("clipindex: clip table references dead node %d", id)
		}
		for k, c := range clips {
			if !info.MBB.ContainsPoint(c.Coord) {
				return fmt.Errorf("clipindex: node %d clip point %v outside MBB %v", id, c, info.MBB)
			}
			for i := 0; i < info.Len(); i++ {
				child := info.Rect(i)
				if !info.Leaf {
					child = live[info.Child(i)].MBB
				}
				if !core.ValidAfterInsert(info.MBB, clips[k:k+1], child) {
					return fmt.Errorf("clipindex: node %d clip point %v clips child %v", id, c, child)
				}
			}
		}
	}
	return nil
}

// SaveAux serialises the clip table onto a page store as auxiliary pages
// (Figure 4b) and returns the number of pages written. Used by the
// storage-overhead experiment.
func (x *Index) SaveAux(p storage.PageStore) (pages int, err error) {
	_, pages, err = storage.WriteChunked(p, x.EncodeClips(x.tree.Dims(), nil))
	return pages, err
}

// AuxBytes returns the exact serialised size of the writer's clip table in
// bytes, counted as Snap.ClipStats counts it (which gives 0 for an empty
// table, whose 8-byte header a snapshot omits); cbbinspect reports it.
func (x *Index) AuxBytes() int {
	nodes, points, _ := clipStats(x.tree.Records(), x.tree.Dims())
	return tableBytes(nodes, points, x.tree.Dims())
}
