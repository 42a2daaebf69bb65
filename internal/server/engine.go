package server

import (
	"errors"

	"cbb"
)

// Engine is the serving layer's view of the index: the subset of the public
// cbb surface the HTTP handlers need, implemented by both the single-tree
// and the Hilbert-sharded engine. Snapshot pins a read view (the serving
// layer pins one view per read request, or one per coalesced batch, so a
// response is always answered from a single committed epoch), and writes go
// through the engines' own single-writer/atomic-batch discipline.
type Engine interface {
	// Snapshot pins a read view of the last committed state.
	Snapshot() ReadView
	// Epochs reports the commit epochs of the last committed state (one
	// element per shard; a single tree has exactly one).
	Epochs() []uint64
	// Insert adds one object, published atomically.
	Insert(r cbb.Rect, id cbb.ObjectID) error
	// Apply applies a write batch atomically: readers observe all of it or
	// none of it. found is the number of delete ops that found their
	// object.
	Apply(ops []WriteOp) (found int, err error)
	// Len is the number of indexed objects at the last committed state.
	Len() int
	// Stats, IOStats and BufferStats surface engine-side statistics into
	// /stats and /metrics.
	Stats() cbb.Stats
	IOStats() cbb.IOStats
	BufferStats() (cbb.BufferStats, bool)
	// Flush commits the current state durably; it is a no-op for an engine
	// that is not bound to snapshot file(s).
	Flush() error
	// Close flushes (when writable and file-backed) and releases the
	// engine.
	Close() error
}

// ReadView is one pinned snapshot: every operation answers at the view's
// epoch(s), regardless of concurrent writers. It must be released with
// Close. *cbb.View and *cbb.ShardedView implement it as they are; embedding
// cbb.Reader makes a view the indexed input of cbb.JoinItems.
type ReadView interface {
	cbb.Reader
	Epochs() []uint64
	Bounds() cbb.Rect
	Search(q cbb.Rect, visit func(cbb.ObjectID, cbb.Rect) bool)
	Count(q cbb.Rect) int
	NearestNeighbors(k int, p cbb.Point) []cbb.Neighbor
	BatchSearch(queries []cbb.Rect, opts cbb.BatchOptions) (cbb.BatchResult, error)
	Close()
}

// WriteOp is one mutation of a /batch request.
type WriteOp struct {
	Delete bool
	Rect   cbb.Rect
	ID     cbb.ObjectID
}

// writeBatch is the common surface of *cbb.Batch and *cbb.ShardedBatch.
type writeBatch interface {
	Insert(r cbb.Rect, id cbb.ObjectID) error
	InsertItems(items []cbb.Item) error
	Delete(r cbb.Rect, id cbb.ObjectID) (bool, error)
	Commit() error
	Rollback()
}

// applyOps replays a /batch request's ops into an open writer batch. Runs of
// consecutive inserts go through InsertItems so they ride the engines' fast
// batch-ingest path (Hilbert-sorted routing, bulk subtree grafts, one COW
// clone per touched node); deletes and singleton inserts keep the per-op
// path. Relative order of a delete and the inserts around it is preserved,
// which is what makes the grouping semantics-neutral: only insert/insert
// order within a run changes, and insert order is not observable (last state
// per object id is identical either way).
func applyOps(b writeBatch, ops []WriteOp) (int, error) {
	found := 0
	var run []cbb.Item
	flush := func() error {
		switch len(run) {
		case 0:
			return nil
		case 1:
			err := b.Insert(run[0].Rect, run[0].Object)
			run = run[:0]
			return err
		default:
			err := b.InsertItems(run)
			run = run[:0]
			return err
		}
	}
	for _, op := range ops {
		if op.Delete {
			if err := flush(); err != nil {
				return 0, err
			}
			ok, err := b.Delete(op.Rect, op.ID)
			if err != nil {
				return 0, err
			}
			if ok {
				found++
			}
			continue
		}
		run = append(run, cbb.Item{Object: op.ID, Rect: op.Rect})
	}
	if err := flush(); err != nil {
		return 0, err
	}
	return found, nil
}

// index is the common surface of *cbb.Tree (B = *cbb.Batch, V = *cbb.View)
// and *cbb.ShardedTree (B = *cbb.ShardedBatch, V = *cbb.ShardedView).
type index[B writeBatch, V ReadView] interface {
	Snapshot() V
	Begin() (B, error)
	Insert(r cbb.Rect, id cbb.ObjectID) error
	Len() int
	Stats() cbb.Stats
	IOStats() cbb.IOStats
	BufferStats() (cbb.BufferStats, bool)
	Flush() error
	Close() error
}

// engine adapts a single tree or a sharded tree: the pinned views satisfy
// ReadView directly, so all that is left to adapt is the differing batch and
// view types behind Begin and Snapshot.
type engine[B writeBatch, V ReadView] struct {
	index[B, V]
	persistent bool
}

// NewTreeEngine wraps a single tree for serving. persistent marks a tree
// bound to a snapshot file (Create/Open), enabling the durable flush on
// shutdown.
func NewTreeEngine(t *cbb.Tree, persistent bool) Engine {
	return engine[*cbb.Batch, *cbb.View]{t, persistent}
}

// NewShardedEngine wraps a sharded tree for serving. persistent marks an
// engine bound to a shard directory (CreateSharded/OpenSharded).
func NewShardedEngine(st *cbb.ShardedTree, persistent bool) Engine {
	return engine[*cbb.ShardedBatch, *cbb.ShardedView]{st, persistent}
}

func (e engine[B, V]) Snapshot() ReadView { return e.index.Snapshot() }

func (e engine[B, V]) Epochs() []uint64 {
	v := e.index.Snapshot()
	defer v.Close()
	return v.Epochs()
}

func (e engine[B, V]) Apply(ops []WriteOp) (int, error) {
	b, err := e.Begin()
	if err != nil {
		return 0, err
	}
	defer b.Rollback()
	found, err := applyOps(b, ops)
	if err != nil {
		return 0, err
	}
	return found, b.Commit()
}

func (e engine[B, V]) Flush() error {
	if !e.persistent {
		return nil
	}
	return e.index.Flush()
}

var errNoEngine = errors.New("server: Config.Engine is required")
