// Package clipindex plugs clipped bounding boxes (internal/core) into any
// R-tree variant (internal/rtree), following Section IV of the paper:
//
//   - the clip points of every node live in an auxiliary store keyed by node
//     id (Figure 4b), fully separate from the node pages;
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
// writer's validity checks read the records directly; the writer and every
// snapshot share them, and only the directory from ids to records is copied
// when the writer first touches it after a publish. Table, the map of
// []core.ClipPoint, is the exchange form: what DecodeTable produces,
// inspection tools read, and Index.Table materialises on demand.
package clipindex

import (
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sync/atomic"

	"cbb/internal/core"
	"cbb/internal/fanout"
	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// Table is the auxiliary clip-point table of Figure 4b: node id → ordered
// clip points. A node with no entry simply has no clip points.
type Table map[rtree.NodeID][]core.ClipPoint

// ClipPointCount returns the total number of stored clip points.
func (t Table) ClipPointCount() int {
	n := 0
	for _, clips := range t {
		n += len(clips)
	}
	return n
}

// AvgClipPointsPerNode returns the average number of clip points per node
// that has at least one (the statistic reported atop the bars of Figure 13).
func (t Table) AvgClipPointsPerNode() float64 {
	if len(t) == 0 {
		return 0
	}
	return float64(t.ClipPointCount()) / float64(len(t))
}

// ReclipCause attributes a clip-table recomputation to one of the three
// causes decomposed in Figure 12.
type ReclipCause int

// Re-clip causes, from structurally forced to purely clip-induced.
const (
	// CauseSplit marks a node that was split (or newly created by a split);
	// its contents changed wholesale, so its clip points must be rebuilt.
	CauseSplit ReclipCause = iota
	// CauseMBBChange marks a node whose MBB changed without a split.
	CauseMBBChange
	// CauseCBBOnly marks a node whose MBB did not change but whose clip
	// points were invalidated by the inserted rectangle (Algorithm 2 with
	// the insert selector returned false).
	CauseCBBOnly
)

// String names the cause as in Figure 12's legend.
func (c ReclipCause) String() string {
	switch c {
	case CauseSplit:
		return "node split"
	case CauseMBBChange:
		return "MBB change"
	case CauseCBBOnly:
		return "CBB change"
	default:
		return fmt.Sprintf("ReclipCause(%d)", int(c))
	}
}

// UpdateStats accumulates the re-clip accounting of the update experiment.
type UpdateStats struct {
	Inserts         int
	Deletes         int
	ReclipsBySplit  int
	ReclipsByMBB    int
	ReclipsByCBB    int
	ValidityChecks  int
	AvoidedReclips  int // validity check passed, clip table kept as-is
	DeletesNoReclip int // deletions absorbed lazily
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

// maxDenseClipID bounds the dense directory of a store (rtree.ClipRecords):
// node ids are arena indices, so a slice indexed by id covers every real tree
// with one load per lookup, and 2^21 slice headers are 48 MiB, cheap next to
// that many nodes. Ids beyond it (a pathological or adversarial snapshot's
// table may name any id) go to the spill map: memory stays bounded by the
// number of records.
const maxDenseClipID = 1 << 21

// setRecord installs (or, with a nil record, removes) a node's record.
func setRecord(s *rtree.ClipRecords, id rtree.NodeID, rec core.Record) {
	switch {
	case id < 0:
	case uint64(id) < uint64(len(s.Dense)):
		s.Dense[id] = rec
	case rec == nil:
		delete(s.Spill, id)
	case id < maxDenseClipID:
		s.Dense = append(s.Dense, make([]core.Record, int(id)+1-len(s.Dense))...)
		s.Dense[id] = rec
	default:
		if s.Spill == nil {
			s.Spill = make(map[rtree.NodeID]core.Record)
		}
		s.Spill[id] = rec
	}
}

// records ranges over the nodes that have clip points, in ascending id order
// (every dense id is below every spilled one).
func records(s *rtree.ClipRecords) iter.Seq2[rtree.NodeID, core.Record] {
	return func(yield func(rtree.NodeID, core.Record) bool) {
		for id, rec := range s.Dense {
			if len(rec) > 0 && !yield(rtree.NodeID(id), rec) {
				return
			}
		}
		for _, id := range slices.Sorted(maps.Keys(s.Spill)) {
			if !yield(id, s.Spill[id]) {
				return
			}
		}
	}
}

// Index is a clipped R-tree: an rtree.Tree of any variant plus the clip
// records of its nodes and the parameters used to maintain them.
//
// Like the underlying tree, the Index is copy-on-write versioned: the
// writer maintains its record directory privately and publishes it together
// with the tree's committed version as one Snap, loaded atomically (once per
// query) by every read path. Readers therefore always see clip points and
// nodes of the same epoch — a clip point computed for a newer node
// generation can never prune a query running against an older one.
type Index struct {
	tree   *rtree.Tree
	params core.Params
	store  rtree.ClipRecords
	// storeShared marks that the directory's backing arrays are referenced
	// by the published Snap and must be copied before the next mutation (the
	// clip-side analogue of the tree's detach step).
	storeShared bool
	cur         atomic.Pointer[Snap]
	stats       UpdateStats
}

// Snap is an epoch-consistent read snapshot of a clipped tree: the tree
// version and the clip records published by the same commit. It is the one
// thing every query and join runs against — a plain R-tree is a Snap without
// records — and is safe for any number of concurrent readers regardless of
// writer activity.
type Snap struct {
	v    *rtree.Version
	recs rtree.ClipRecords
}

// Version returns the tree version the snapshot is bound to.
func (s *Snap) Version() *rtree.Version { return s.v }

// Record returns the clip record of the node at the snapshot's epoch (nil
// when it has no clip points); joins test it with core.Record.Dead.
func (s *Snap) Record(id rtree.NodeID) core.Record { return s.recs.Of(id) }

// Clips materialises the clip points of the node at the snapshot's epoch
// (nil when it has none), for inspection; nothing on a query path calls it.
func (s *Snap) Clips(id rtree.NodeID) []core.ClipPoint {
	return s.recs.Of(id).Points(s.v.Dims())
}

// Search finds every object intersecting q at the snapshot's epoch, using
// its clip points to skip child nodes whose overlap with q is entirely dead
// space.
func (s *Snap) Search(q geom.Rect, visit func(rtree.ObjectID, geom.Rect) bool) {
	s.SearchCounted(q, nil, visit)
}

// SearchCounted is Search with the node accesses charged to an explicit
// counter instead of the tree's own (the tree's counter when c is nil). It
// satisfies the batch executor's Searcher contract.
func (s *Snap) SearchCounted(q geom.Rect, c *storage.Counter, visit func(rtree.ObjectID, geom.Rect) bool) {
	s.v.SearchClippedCounted(q, &s.recs, c, visit)
}

// NearestNeighbors is rtree.NearestNeighbors over the snapshots — one tree,
// or the shards of one index — with their clip records lifting its bounds.
func NearestNeighbors(k int, p geom.Point, snaps ...*Snap) []rtree.Neighbor {
	var buf [8]rtree.KNNSource // on the stack for up to eight shards
	srcs := buf[:0]
	for _, s := range snaps {
		srcs = append(srcs, rtree.KNNSource{Version: s.v, Clips: &s.recs})
	}
	return rtree.NearestNeighbors(k, p, srcs...)
}

// ClipStats counts the snapshot's clip records: the nodes that have clip
// points, the clip points in total, and the exact size the table serialises
// to (as TableBytes; 0 for an empty table, which snapshots omit altogether).
func (s *Snap) ClipStats() (nodes, points, bytes int) {
	return clipStats(&s.recs, s.v.Dims())
}

// ResidentBytes returns the heap the snapshot's clip points occupy: the
// directory (a slice header per dense node id, a map entry per spilled id)
// plus the records.
func (s *Snap) ResidentBytes() int {
	n := cap(s.recs.Dense)*24 + len(s.recs.Spill)*32
	for _, rec := range records(&s.recs) {
		n += 8 * cap(rec)
	}
	return n
}

func clipStats(recs *rtree.ClipRecords, dims int) (nodes, points, bytes int) {
	for _, rec := range records(recs) {
		nodes++
		points += rec.Len(dims)
	}
	if nodes > 0 {
		bytes = tableBytes(nodes, points, dims)
	}
	return nodes, points, bytes
}

// ensurePrivateStore detaches the record directory from the published
// snapshot: the dense slice and the spill map are copied, the records
// themselves are immutable and stay shared.
func (x *Index) ensurePrivateStore() {
	if x.storeShared {
		x.store = rtree.ClipRecords{Dense: slices.Clone(x.store.Dense), Spill: maps.Clone(x.store.Spill)}
		x.storeShared = false
	}
}

// publish stores a new combined snapshot pairing the tree's current
// committed version with the writer's record directory, and marks the
// directory shared (copy-on-write for the next batch).
func (x *Index) publish() {
	x.cur.Store(&Snap{v: x.tree.CurrentVersion(), recs: x.store})
	x.storeShared = true
}

// maintain runs one table-maintenance step for a mutation the tree just
// applied, then publishes tree version and records together (unless an
// explicit batch is open, whose Commit publishes instead). It holds the
// index's one K == 0 early-out: with K == 0 (the public ClipNone
// configuration) core.Clip never yields a clip point, so the store is
// permanently empty, the index is exactly a plain R-tree, and the step is
// skipped whole — no walk, no node lookups, no Reclip charge.
func (x *Index) maintain(step func()) {
	if x.params.K != 0 {
		step()
	}
	if !x.tree.InBatch() {
		x.publish()
	}
}

// Snap returns the current combined snapshot (one atomic load, unpinned).
func (x *Index) Snap() *Snap { return x.cur.Load() }

// PinSnap returns the current combined snapshot with its tree version
// pinned, for long-lived read views; release it with Snap.Version().Unpin().
func (x *Index) PinSnap() *Snap {
	for {
		s := x.cur.Load()
		s.v.Pin()
		if x.cur.Load() == s {
			return s
		}
		s.v.Unpin()
	}
}

// Begin opens an explicit writer batch on the underlying tree: mutations
// accumulate privately and reach readers only at Commit, as one atomic
// snapshot switch.
func (x *Index) Begin() error { return x.tree.BeginBatch() }

// Commit publishes every mutation since Begin — node and clip state together
// — as one new epoch.
func (x *Index) Commit() {
	x.tree.CommitBatch()
	x.publish()
}

// Rollback discards every mutation since Begin: the tree batch is rolled
// back and the writer takes the published snapshot's record directory back,
// shared again, so nothing is rebuilt. Readers never saw any of it. The
// advisory update statistics (Stats) are not unwound.
func (x *Index) Rollback() {
	x.tree.RollbackBatch()
	x.store = x.cur.Load().recs
	x.storeShared = true // next mutation copies before touching the directory
}

// setClips installs a node's record in the writer's directory (a nil record
// removes the node's clip points).
func (x *Index) setClips(id rtree.NodeID, rec core.Record) {
	x.ensurePrivateStore()
	setRecord(&x.store, id, rec)
}

// New wraps an existing tree (already built, possibly empty) and computes
// clip points for all of its nodes.
func New(tree *rtree.Tree, params core.Params) (*Index, error) {
	if tree == nil {
		return nil, errors.New("clipindex: tree must not be nil")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	idx := &Index{tree: tree, params: params}
	idx.RebuildAll()
	return idx, nil
}

// Restore wraps a tree with a previously computed clip table without
// recomputing anything — the decode path of the persistence subsystem. The
// table is flattened into records and not retained (it must belong to this
// tree, which snapshot integrity checks guarantee); a nil table means no node
// has clip points. Unlike New, Restore never walks the tree, so a lazily
// opened file-backed tree stays unmaterialised.
func Restore(tree *rtree.Tree, params core.Params, table Table) (*Index, error) {
	if tree == nil {
		return nil, errors.New("clipindex: tree must not be nil")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	x := &Index{tree: tree, params: params}
	for id, clips := range table {
		setRecord(&x.store, id, core.NewRecord(clips, tree.Dims()))
	}
	x.publish()
	return x, nil
}

// Tree returns the underlying R-tree.
func (x *Index) Tree() *rtree.Tree { return x.tree }

// Params returns the clipping parameters.
func (x *Index) Params() core.Params { return x.params }

// Table materialises the writer's clip records (scores are not kept, as in a
// decoded table), for inspection, experiments and tests; snapshots are
// encoded straight from the records (EncodeClips).
func (x *Index) Table() Table {
	t := make(Table)
	for id, rec := range records(&x.store) {
		t[id] = rec.Points(x.tree.Dims())
	}
	return t
}

// Stats returns the accumulated update statistics.
func (x *Index) Stats() UpdateStats { return x.stats }

// ResetStats zeroes the update statistics.
func (x *Index) ResetStats() { x.stats = UpdateStats{} }

// Len returns the number of indexed objects.
func (x *Index) Len() int { return x.tree.Len() }

// RebuildAll recomputes the clip points of every node from scratch
// (Algorithm 1 applied to each node, as done when a freshly built R-tree is
// clipped before its nodes are flushed to disk), and publishes the result
// (unless an explicit batch is open, whose Commit publishes instead).
func (x *Index) RebuildAll() { x.maintain(x.rebuildTable) }

// rebuildTable recomputes every record. Published snapshots keep
// referencing the old directory; the rebuild starts from a fresh private
// one rather than wiping it in place. The nodes are collected here, on
// the writer's goroutine, so a lazily opened file-backed tree faults its
// pages in from one thread.
func (x *Index) rebuildTable() {
	var infos []rtree.NodeInfo
	x.tree.Walk(func(info rtree.NodeInfo) { infos = append(infos, info) })
	x.store = rtree.ClipRecords{}
	x.storeShared = false
	x.reclip(infos)
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
// The scratch goes with the call: nothing of a build stays on the heap but
// the records, one allocation per clipped node.
func (x *Index) reclip(infos []rtree.NodeInfo) {
	if len(infos) == 0 {
		return
	}
	recs := make([]core.Record, len(infos))
	type scratch struct {
		clipper  core.Clipper
		children []geom.Rect
	}
	perWorker := make([]*scratch, BuildWorkers(len(infos)))
	fanout.ForEachChunk(len(infos), 0, reclipChunk, func(w, lo, hi int) {
		if perWorker[w] == nil {
			perWorker[w] = new(scratch)
		}
		s := perWorker[w]
		for i := lo; i < hi; i++ {
			info := &infos[i]
			s.children = slices.Grow(s.children[:0], info.Len())
			for j := 0; j < info.Len(); j++ {
				s.children = append(s.children, info.Rect(j))
			}
			recs[i] = core.NewRecord(s.clipper.Clip(info.MBB, s.children, x.params), len(info.MBB.Lo))
		}
	})
	for i := range infos {
		x.setClips(infos[i].ID, recs[i])
	}
}

// reclipByIDs recomputes the clip points of the given nodes in one build,
// looking each node up first; missing nodes (freed during condensation) are
// simply dropped.
func (x *Index) reclipByIDs(ids []rtree.NodeID) {
	infos := make([]rtree.NodeInfo, 0, len(ids))
	for _, id := range ids {
		info, err := x.tree.Node(id)
		if err != nil {
			x.setClips(id, nil)
			continue
		}
		infos = append(infos, info)
	}
	x.reclip(infos)
	x.tree.Counter().Reclip(int64(len(infos)))
}

// Search finds every object intersecting q, using clip points to skip child
// nodes whose overlap with q is entirely dead space. Results are identical
// to an unclipped search; only the I/O differs.
//
// It is safe for any number of concurrent readers at any time, including
// while the single writer mutates: the query runs against one atomically
// loaded Snap (immutable tree version + clip records of the same epoch).
func (x *Index) Search(q geom.Rect, visit func(rtree.ObjectID, geom.Rect) bool) {
	x.SearchCounted(q, nil, visit)
}

// SearchCounted is Search with the node accesses charged to an explicit
// counter instead of the tree's own (the tree's counter when c is nil), the
// hook parallel executors use to give each worker goroutine private I/O
// accounting. One combined snapshot — tree version plus clip records of the
// same epoch — is loaded atomically at entry and pins the whole traversal.
func (x *Index) SearchCounted(q geom.Rect, c *storage.Counter, visit func(rtree.ObjectID, geom.Rect) bool) {
	x.cur.Load().SearchCounted(q, c, visit)
}

// Count returns the number of objects intersecting q using the clipped
// search path.
func (x *Index) Count(q geom.Rect) int {
	n := 0
	x.Search(q, func(rtree.ObjectID, geom.Rect) bool { n++; return true })
	return n
}

// Insert adds an object and maintains the clip table per Section IV-D. It
// returns the causes of any clip recomputations performed (for the update
// experiment).
func (x *Index) Insert(r geom.Rect, obj rtree.ObjectID) ([]ReclipCause, error) {
	trace, err := x.tree.Insert(r, obj)
	if err != nil {
		return nil, err
	}
	x.stats.Inserts++
	var causes []ReclipCause
	x.maintain(func() { causes = x.applyInsertTrace(trace) })
	return causes, nil
}

// InsertItems adds a batch of objects through the tree's fast batch-insert
// pipeline and maintains the clip table from the one aggregated trace: each
// structurally changed node is re-clipped once for the whole batch and each
// placement is validity-checked once, instead of paying the per-insert
// maintenance (including the copy-on-write detach of the record directory)
// per item. Outside an explicit batch the combined snapshot is published
// once, atomically.
func (x *Index) InsertItems(items []rtree.Item) error {
	trace, err := x.tree.InsertItems(items)
	if err != nil {
		return err
	}
	x.stats.Inserts += len(items)
	x.maintain(func() { x.applyInsertTrace(trace) })
	return nil
}

// applyInsertTrace runs the Section IV-D maintenance for one insertion
// trace — single-insert or batch-aggregated: re-clip split/created/
// MBB-changed nodes, validity-check every placement, and check ancestors of
// grown children. It returns the causes of the reclips performed.
func (x *Index) applyInsertTrace(trace *rtree.InsertTrace) []ReclipCause {
	if trace.Rebuilt {
		// The batch rebuilt the tree wholesale: old ids were freed and may
		// have been reused, so stale table entries cannot be patched out
		// incrementally. Recompute the table from scratch, exactly like
		// RebuildAll but publishing through the caller.
		x.rebuildTable()
		return nil
	}

	var causes []ReclipCause

	// Every decision below reads the tree as the mutation left it and the
	// clip points of nodes not marked yet, so the marked nodes are re-clipped
	// together at the end, as one build.
	var pending []rtree.NodeID
	reclipped := make(map[rtree.NodeID]bool, len(trace.Split)+len(trace.Created)+len(trace.MBBChanged))
	reclip := func(id rtree.NodeID, cause ReclipCause) {
		if reclipped[id] {
			return
		}
		reclipped[id] = true
		pending = append(pending, id)
		causes = append(causes, cause)
		switch cause {
		case CauseSplit:
			x.stats.ReclipsBySplit++
		case CauseMBBChange:
			x.stats.ReclipsByMBB++
		case CauseCBBOnly:
			x.stats.ReclipsByCBB++
		}
	}

	// 1. Nodes that were split or created: their content changed wholesale.
	for _, id := range trace.Split {
		reclip(id, CauseSplit)
	}
	for _, id := range trace.Created {
		reclip(id, CauseSplit)
	}
	// 2. Nodes whose MBB changed: thresholds and orderings are distorted, so
	// the paper recomputes them.
	for _, id := range trace.MBBChanged {
		reclip(id, CauseMBBChange)
	}
	// 3. Every node that received an entry (the target leaf and any node
	// touched by forced reinsertion) but was not structurally changed: run
	// the eager validity check of Algorithm 2 with the insert selector and
	// re-clip only when the placed rectangle reaches into clipped dead
	// space.
	check := func(id rtree.NodeID, r geom.Rect) {
		if broken, checked := x.invalidates(id, r); checked {
			x.stats.ValidityChecks++
			if broken {
				reclip(id, CauseCBBOnly)
			} else {
				x.stats.AvoidedReclips++
			}
		}
	}
	for _, pl := range trace.Placements {
		if reclipped[pl.Node] {
			continue
		}
		if len(x.store.Of(pl.Node)) == 0 {
			// No clip points can be invalidated, but new dead space might
			// now be clippable; the paper leaves such nodes alone until the
			// next forced recomputation, and so do we.
			x.stats.AvoidedReclips++
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
	x.reclipByIDs(pending)
	return causes
}

// invalidates is the eager validity check of Section IV-D on the node's flat
// record: broken reports whether placing r in the node breaks its clip points
// (the negation of core.ValidAfterInsert). checked is false, and nothing was
// tested, when the node has no clip points or no longer exists.
func (x *Index) invalidates(id rtree.NodeID, r geom.Rect) (broken, checked bool) {
	rec := x.store.Of(id)
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
// nodes whose MBB changed or that were dissolved.
func (x *Index) Delete(r geom.Rect, obj rtree.ObjectID) (bool, error) {
	trace, err := x.tree.Delete(r, obj)
	if err != nil {
		return false, err
	}
	if trace.Found {
		x.stats.Deletes++
	}
	x.maintain(func() { x.applyDeleteTrace(trace) })
	return trace.Found, nil
}

// applyDeleteTrace runs the lazy deletion maintenance for one trace.
func (x *Index) applyDeleteTrace(trace *rtree.DeleteTrace) {
	if !trace.Found {
		return
	}
	for _, id := range trace.Removed {
		x.setClips(id, nil)
	}
	// As in applyInsertTrace, the marked nodes are re-clipped together at the
	// end.
	var pending []rtree.NodeID
	reclipped := make(map[rtree.NodeID]bool)
	reclip := func(id rtree.NodeID) {
		if !reclipped[id] {
			reclipped[id] = true
			pending = append(pending, id)
		}
	}
	for _, id := range trace.MBBChanged {
		reclip(id)
	}
	// Entries re-inserted by the condense step may land in clipped dead
	// space of nodes whose MBB did not change; validity-check each placement
	// just like an insertion.
	for _, pl := range trace.Placements {
		if broken, _ := x.invalidates(pl.Node, pl.Rect); broken {
			reclip(pl.Node)
		}
	}
	// A node whose MBB grew during re-insertion may now intrude into its
	// parent's clipped corners even though the parent's own MBB is
	// unchanged; validity-check those parents as well.
	for _, id := range trace.MBBChanged {
		if info, err := x.tree.Node(id); err == nil && info.Parent != rtree.InvalidNode {
			if broken, _ := x.invalidates(info.Parent, info.MBB); broken {
				reclip(info.Parent)
			}
		}
	}
	x.reclipByIDs(pending)
	if len(reclipped) == 0 {
		x.stats.DeletesNoReclip++
	}
}

// Validate checks that the clip table is sound: every clip point belongs to
// a live node, lies inside that node's MBB, and clips only dead space (no
// child rectangle overlaps a clipped region's interior). It returns the
// first violation found.
func (x *Index) Validate() error {
	live := make(map[rtree.NodeID]rtree.NodeInfo)
	x.tree.Walk(func(info rtree.NodeInfo) { live[info.ID] = info })
	for id, clips := range x.Table() {
		info, ok := live[id]
		if !ok {
			return fmt.Errorf("clipindex: clip table references dead node %d", id)
		}
		for _, c := range clips {
			if !info.MBB.ContainsPoint(c.Coord) {
				return fmt.Errorf("clipindex: node %d clip point %v outside MBB %v", id, c, info.MBB)
			}
			region := c.Region(info.MBB)
			for i := 0; i < info.Len(); i++ {
				if child := info.Rect(i); region.OverlapVolume(child) > 1e-9 {
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

// AuxBytes returns the exact serialised size of the clip table in bytes —
// the same number Stats.ClipTableBytes and the cbbinspect storage breakdown
// report, all through TableBytes.
func (x *Index) AuxBytes() int {
	nodes, points, _ := clipStats(&x.store, x.tree.Dims())
	return tableBytes(nodes, points, x.tree.Dims())
}
