// Package clipindex plugs clipped bounding boxes (internal/core) into any
// R-tree variant (internal/rtree), following Section IV of the paper:
//
//   - the clip points of every node live in a small auxiliary table keyed by
//     node id (Figure 4b), fully separate from the node pages;
//   - queries run the unmodified R-tree descent but consult Algorithm 2
//     before visiting a child node, skipping children whose overlap with the
//     query is entirely clipped dead space;
//   - insertions keep the table consistent with the eager validity check of
//     Section IV-D (re-clip only when a clip point would clip the new
//     object, the node split, or the node's MBB changed);
//   - deletions are handled lazily (clip points only become more
//     conservative when data disappears) unless the MBB changes.
package clipindex

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"cbb/internal/core"
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

// clipStore is the dense admission-path mirror of the clip table: clip
// points indexed by node id with a single slice load instead of a map
// lookup. Node ids are arena indices and therefore compact, so the dense
// slice covers essentially every real tree; ids beyond maxDenseClipID (only
// reachable through pathological or adversarial snapshots) fall back to a
// spill map so memory stays bounded by the number of clipped nodes.
type clipStore struct {
	dense [][]core.ClipPoint
	spill map[rtree.NodeID][]core.ClipPoint
}

// maxDenseClipID bounds the dense slice: 2^21 slice headers are 48 MiB, far
// beyond any arena the snapshot decoder accepts, and cheap next to the nodes.
const maxDenseClipID = 1 << 21

// get returns the clip points of the node (nil when none).
func (s *clipStore) get(id rtree.NodeID) []core.ClipPoint {
	if uint64(id) < uint64(len(s.dense)) {
		return s.dense[id]
	}
	return s.spill[id]
}

func (s *clipStore) set(id rtree.NodeID, clips []core.ClipPoint) {
	if id < 0 {
		return
	}
	if int64(id) < maxDenseClipID {
		for int(id) >= len(s.dense) {
			s.dense = append(s.dense, nil)
		}
		s.dense[id] = clips
		return
	}
	if s.spill == nil {
		s.spill = make(map[rtree.NodeID][]core.ClipPoint)
	}
	s.spill[id] = clips
}

func (s *clipStore) del(id rtree.NodeID) {
	if uint64(id) < uint64(len(s.dense)) {
		s.dense[id] = nil
		return
	}
	delete(s.spill, id)
}

// Index is a clipped R-tree: an rtree.Tree of any variant plus a clip table
// and the parameters used to maintain it. The authoritative table (the
// serialised Figure 4b form) and the dense admission mirror are kept in sync
// through setClips/delClips.
//
// Like the underlying tree, the Index is copy-on-write versioned: the
// writer maintains the table and the dense mirror privately and publishes
// them together with the tree's committed version as one Snap, loaded
// atomically (once per query) by every read path. Readers therefore always
// see clip points and nodes of the same epoch — a clip point computed for a
// newer node generation can never prune a query running against an older
// one.
type Index struct {
	tree   *rtree.Tree
	params core.Params
	table  Table
	store  clipStore
	// storeShared marks that the dense mirror's backing arrays are
	// referenced by the published Snap and must be copied before the next
	// mutation (the clip-side analogue of the tree's detach step).
	storeShared bool
	cur         atomic.Pointer[Snap]
	stats       UpdateStats
}

// Snap is an epoch-consistent read snapshot of a clipped tree: the tree
// version and the clip mirrors published by the same commit. It is the one
// thing every query and join runs against — a plain R-tree is a Snap whose
// mirrors are empty — and is safe for any number of concurrent readers
// regardless of writer activity.
type Snap struct {
	v     *rtree.Version
	dense [][]core.ClipPoint
	spill map[rtree.NodeID][]core.ClipPoint
}

// Version returns the tree version the snapshot is bound to.
func (s *Snap) Version() *rtree.Version { return s.v }

// Clips returns the clip points of the node at the snapshot's epoch (nil
// when it has none).
func (s *Snap) Clips(id rtree.NodeID) []core.ClipPoint {
	if uint64(id) < uint64(len(s.dense)) {
		return s.dense[id]
	}
	return s.spill[id]
}

// AdmitChild is the Algorithm-2 admission test bound to the snapshot's
// epoch; it implements rtree.Admitter for the clipped search below.
func (s *Snap) AdmitChild(child rtree.NodeID, childMBB geom.Rect, q geom.Rect) bool {
	clips := s.Clips(child)
	if len(clips) == 0 {
		return true
	}
	return core.Intersects(childMBB, clips, q, core.SelectorQuery)
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
	v := s.v
	if v.RootID() == rtree.InvalidNode || !q.Valid() || q.Dims() != v.Dims() {
		return
	}
	// The root's own MBB and clip points can prune the query outright,
	// before any I/O is charged.
	if !v.RootMBBIntersects(q) {
		return
	}
	if core.QueryDead(s.Clips(v.RootID()), q) {
		return
	}
	v.SearchAdmittedCounted(q, s, c, visit)
}

// ClipStats counts the snapshot's clip table from its immutable mirrors: the
// nodes that have clip points, the clip points in total, and the exact size
// the table serialises to (as TableBytes; 0 for an empty table, which
// snapshots omit altogether).
func (s *Snap) ClipStats() (nodes, points, bytes int) {
	count := func(clips []core.ClipPoint) {
		if len(clips) > 0 {
			nodes++
			points += len(clips)
		}
	}
	for _, clips := range s.dense {
		count(clips)
	}
	for _, clips := range s.spill {
		count(clips)
	}
	if nodes > 0 {
		bytes = tableBytes(nodes, points, s.v.Dims())
	}
	return nodes, points, bytes
}

// ensurePrivateStore detaches the dense mirror from the published snapshot:
// the outer slice and the spill map are copied so the snapshot's readers
// keep an untouched view while the writer mutates its own. The inner
// []core.ClipPoint slices are immutable once installed (every reclip builds
// a fresh slice), so they are shared freely across snapshots.
func (x *Index) ensurePrivateStore() {
	if !x.storeShared {
		return
	}
	x.store.dense = append([][]core.ClipPoint(nil), x.store.dense...)
	if x.store.spill != nil {
		spill := make(map[rtree.NodeID][]core.ClipPoint, len(x.store.spill))
		for id, clips := range x.store.spill {
			spill[id] = clips
		}
		x.store.spill = spill
	}
	x.storeShared = false
}

// publish stores a new combined snapshot pairing the tree's current
// committed version with the writer's clip mirrors, and marks the mirrors
// shared (copy-on-write for the next batch).
func (x *Index) publish() {
	x.cur.Store(&Snap{v: x.tree.CurrentVersion(), dense: x.store.dense, spill: x.store.spill})
	x.storeShared = true
}

// maintain runs one table-maintenance step for a mutation the tree just
// applied, then publishes tree version and table together (unless an
// explicit batch is open, whose Commit publishes instead). It holds the
// index's one K == 0 early-out: with K == 0 (the public ClipNone
// configuration) core.Clip never yields a clip point, so the table is
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
// back, and the writer's clip table and mirrors are restored from the last
// published snapshot. Readers never saw any of it. The advisory update
// statistics (Stats) are not unwound.
func (x *Index) Rollback() {
	x.tree.RollbackBatch()
	s := x.cur.Load()
	x.store.dense = s.dense
	x.store.spill = s.spill
	x.storeShared = true // next mutation copies before touching the mirrors
	table := make(Table, len(s.spill)+len(s.dense)/8)
	for id, clips := range s.dense {
		if len(clips) > 0 {
			table[rtree.NodeID(id)] = clips
		}
	}
	for id, clips := range s.spill {
		table[id] = clips
	}
	x.table = table
}

// setClips installs a node's clip points in both the table and the dense
// admission mirror.
func (x *Index) setClips(id rtree.NodeID, clips []core.ClipPoint) {
	x.ensurePrivateStore()
	x.table[id] = clips
	x.store.set(id, clips)
}

// delClips removes a node's clip points from both representations.
func (x *Index) delClips(id rtree.NodeID) {
	x.ensurePrivateStore()
	delete(x.table, id)
	x.store.del(id)
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
	idx := &Index{tree: tree, params: params, table: make(Table)}
	idx.RebuildAll()
	return idx, nil
}

// Restore wraps a tree with a previously computed clip table without
// recomputing anything — the decode path of the persistence subsystem. The
// table is adopted as-is (it must belong to this tree, which snapshot
// integrity checks guarantee); a nil table means no node has clip points.
// Unlike New, Restore never walks the tree, so a lazily opened file-backed
// tree stays unmaterialised.
func Restore(tree *rtree.Tree, params core.Params, table Table) (*Index, error) {
	if tree == nil {
		return nil, errors.New("clipindex: tree must not be nil")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if table == nil {
		table = make(Table)
	}
	x := &Index{tree: tree, params: params, table: table}
	for id, clips := range table {
		x.store.set(id, clips)
	}
	x.publish()
	return x, nil
}

// Tree returns the underlying R-tree.
func (x *Index) Tree() *rtree.Tree { return x.tree }

// Params returns the clipping parameters.
func (x *Index) Params() core.Params { return x.params }

// Table returns the auxiliary clip table. The caller must not modify it.
func (x *Index) Table() Table { return x.table }

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

// rebuildTable recomputes the whole table. Published snapshots keep
// referencing the old mirrors; the rebuild starts from a fresh private
// store rather than wiping them in place. The nodes are collected here, on
// the writer's goroutine, so a lazily opened file-backed tree faults its
// pages in from one thread.
func (x *Index) rebuildTable() {
	var infos []rtree.NodeInfo
	x.tree.Walk(func(info rtree.NodeInfo) { infos = append(infos, info) })
	x.table = make(Table)
	x.store = clipStore{}
	x.storeShared = false
	x.reclip(infos)
}

// reclipChunk is the number of nodes a build worker takes at a time: large
// enough that claiming a chunk is noise next to clipping it, small enough
// that a two-level tree still splits into several.
const reclipChunk = 16

// BuildWorkers returns the number of goroutines, the caller's included, that
// clip a set of n nodes: one per chunk up to GOMAXPROCS.
func BuildWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), (n+reclipChunk-1)/reclipChunk))
}

// reclip runs Algorithm 1 on the given nodes and installs the results — the
// one place clip points are computed, whether for the nodes one insert
// invalidated or for every node of a bulk-loaded tree. Algorithm 1 reads
// nothing but one node's child rectangles, so the nodes are clipped in
// chunks by up to GOMAXPROCS workers (the caller being one of them; a single
// chunk starts no goroutine), each with its own scratch and each writing only
// its own nodes' slots of clips. Installation is serial and in the order
// given, so the table, the dense mirror and their heap layout do not depend
// on the worker count or on scheduling. The scratch goes with the call:
// nothing of a build stays on the heap but the clip points.
func (x *Index) reclip(infos []rtree.NodeInfo) {
	if len(infos) == 0 {
		return
	}
	clips := make([][]core.ClipPoint, len(infos))
	var next atomic.Int64
	work := func() {
		var clipper core.Clipper
		var children []geom.Rect
		for {
			lo := int(next.Add(1)-1) * reclipChunk
			if lo >= len(infos) {
				return
			}
			for i := lo; i < min(lo+reclipChunk, len(infos)); i++ {
				info := &infos[i]
				children = slices.Grow(children[:0], info.Len())
				for j := 0; j < info.Len(); j++ {
					children = append(children, info.Rect(j))
				}
				clips[i] = clipper.Clip(info.MBB, children, x.params)
			}
		}
	}
	var wg sync.WaitGroup
	for w := BuildWorkers(len(infos)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for i := range infos {
		if id := infos[i].ID; len(clips[i]) == 0 {
			x.delClips(id)
		} else {
			x.setClips(id, clips[i])
		}
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
			x.delClips(id)
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
// loaded Snap (immutable tree version + clip mirrors of the same epoch).
func (x *Index) Search(q geom.Rect, visit func(rtree.ObjectID, geom.Rect) bool) {
	x.SearchCounted(q, nil, visit)
}

// SearchCounted is Search with the node accesses charged to an explicit
// counter instead of the tree's own (the tree's counter when c is nil), the
// hook parallel executors use to give each worker goroutine private I/O
// accounting. One combined snapshot — tree version plus clip mirrors of the
// same epoch — is loaded atomically at entry and pins the whole traversal.
func (x *Index) SearchCounted(q geom.Rect, c *storage.Counter, visit func(rtree.ObjectID, geom.Rect) bool) {
	x.cur.Load().SearchCounted(q, c, visit)
}

// AdmitChild is the Algorithm-2 admission test the clipped search runs before
// visiting a child node (it implements rtree.Admitter): it reports whether
// the query's overlap with the child's MBB may contain live space. A child
// with no clip points is always admitted. The clip lookup is a dense slice
// load and the dominance tests allocate nothing, so admission costs an index
// load plus a handful of float comparisons per clip point. It consults the
// last published snapshot; query paths use the Snap's own AdmitChild so one
// query never mixes epochs.
func (x *Index) AdmitChild(child rtree.NodeID, childMBB geom.Rect, q geom.Rect) bool {
	return x.cur.Load().AdmitChild(child, childMBB, q)
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
// maintenance (including the copy-on-write detach of the dense clip mirror)
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
	for _, pl := range trace.Placements {
		if reclipped[pl.Node] {
			continue
		}
		clips := x.store.get(pl.Node)
		if len(clips) == 0 {
			// No clip points can be invalidated, but new dead space might
			// now be clippable; the paper leaves such nodes alone until the
			// next forced recomputation, and so do we.
			x.stats.AvoidedReclips++
			continue
		}
		info, err := x.tree.Node(pl.Node)
		if err != nil {
			continue
		}
		x.stats.ValidityChecks++
		if !core.Intersects(info.MBB, clips, pl.Rect, core.SelectorInsert) {
			reclip(pl.Node, CauseCBBOnly)
		} else {
			x.stats.AvoidedReclips++
		}
	}
	// 4. Ancestors whose own MBB did not change but one of whose children
	// grew (child MBB change could intrude into the parent's clipped
	// corners): validity-check them against the grown child rectangles.
	x.checkAncestors(trace, reclip)
	x.reclipByIDs(pending)
	return causes
}

// checkAncestors runs the insert-validity test on parents of changed nodes
// that were not themselves re-clipped.
func (x *Index) checkAncestors(trace *rtree.InsertTrace, reclip func(rtree.NodeID, ReclipCause)) {
	changed := append(append([]rtree.NodeID{}, trace.MBBChanged...), trace.Split...)
	changed = append(changed, trace.Created...)
	for _, id := range changed {
		info, err := x.tree.Node(id)
		if err != nil || info.Parent == rtree.InvalidNode {
			continue
		}
		parent := info.Parent
		if trace.Changed(parent) {
			continue // already re-clipped via its own cause
		}
		clips := x.store.get(parent)
		if len(clips) == 0 {
			continue
		}
		pinfo, err := x.tree.Node(parent)
		if err != nil {
			continue
		}
		x.stats.ValidityChecks++
		if !core.Intersects(pinfo.MBB, clips, info.MBB, core.SelectorInsert) {
			reclip(parent, CauseCBBOnly)
		} else {
			x.stats.AvoidedReclips++
		}
	}
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
		x.delClips(id)
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
		if reclipped[pl.Node] {
			continue
		}
		clips := x.store.get(pl.Node)
		if len(clips) == 0 {
			continue
		}
		info, err := x.tree.Node(pl.Node)
		if err != nil {
			continue
		}
		if !core.Intersects(info.MBB, clips, pl.Rect, core.SelectorInsert) {
			reclip(pl.Node)
		}
	}
	// A node whose MBB grew during re-insertion may now intrude into its
	// parent's clipped corners even though the parent's own MBB is
	// unchanged; validity-check those parents as well.
	for _, id := range trace.MBBChanged {
		info, err := x.tree.Node(id)
		if err != nil || info.Parent == rtree.InvalidNode || reclipped[info.Parent] {
			continue
		}
		clips := x.store.get(info.Parent)
		if len(clips) == 0 {
			continue
		}
		pinfo, err := x.tree.Node(info.Parent)
		if err != nil {
			continue
		}
		if !core.Intersects(pinfo.MBB, clips, info.MBB, core.SelectorInsert) {
			reclip(info.Parent)
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
	for id, clips := range x.table {
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
	buf := EncodeTable(x.table, x.tree.Dims())
	pageSize := p.PageSize()
	for off := 0; off < len(buf); off += pageSize {
		end := off + pageSize
		if end > len(buf) {
			end = len(buf)
		}
		id, err := p.Allocate(storage.KindAux)
		if err != nil {
			return pages, err
		}
		if err := p.Write(id, buf[off:end]); err != nil {
			return pages, err
		}
		pages++
	}
	return pages, nil
}

// AuxBytes returns the exact serialised size of the clip table in bytes —
// the same number Stats.ClipTableBytes and the cbbinspect storage breakdown
// report, all through TableBytes.
func (x *Index) AuxBytes() int {
	return TableBytes(x.table, x.tree.Dims())
}
