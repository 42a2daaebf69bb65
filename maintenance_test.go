package cbb

import (
	"io"
	"math/rand"
	"sync"
	"testing"
)

// maintenanceEngine is what TestMaintenanceBesideWriterAndReader drives: a
// Tree or a ShardedTree.
type maintenanceEngine interface {
	Insert(Rect, ObjectID) error
	Delete(Rect, ObjectID) (bool, error)
	Count(Rect) int
	AttachBufferPool(int)
	DetachBufferPool()
	ResetIOStats()
	Validate() error
}

// TestMaintenanceBesideWriterAndReader runs every maintenance operation —
// attaching and detaching a buffer pool, resetting the I/O counters,
// validating and, on a Tree, saving a snapshot in both formats — while one
// goroutine inserts and deletes and another queries. It passes vacuously
// without -race; under the race detector it fails if any of them touches
// writer state or the pool pointer without synchronisation.
func TestMaintenanceBesideWriterAndReader(t *testing.T) {
	tree, queries := buildConcurrencyFixture(t, ClipStairline, 1500)
	sharded, err := NewSharded(ShardedOptions{Options: Options{Dims: 2, Universe: R(0, 0, 1010, 1010)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sharded.BulkLoad(tree.SearchAll(R(0, 0, 1010, 1010))); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		e    maintenanceEngine
		save func() error
	}{
		{"tree", tree, func() error {
			if err := tree.SaveTo(io.Discard); err != nil {
				return err
			}
			return tree.SaveToFormat(io.Discard, SnapshotV2)
		}},
		{"sharded", sharded, func() error { return nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // writer
				defer wg.Done()
				rng := rand.New(rand.NewSource(5))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					x, y := rng.Float64()*1000, rng.Float64()*1000
					r, id := R(x, y, x+3, y+3), ObjectID(100000+i)
					if err := c.e.Insert(r, id); err != nil {
						t.Error(err)
						return
					}
					if found, err := c.e.Delete(r, id); err != nil || !found {
						t.Errorf("delete %d: found %v, err %v", id, found, err)
						return
					}
				}
			}()
			go func() { // reader
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					c.e.Count(queries[i%len(queries)])
				}
			}()
			for round := 0; round < 4; round++ {
				c.e.AttachBufferPool(64)
				c.e.ResetIOStats()
				if err := c.e.Validate(); err != nil {
					t.Error(err)
				}
				if err := c.save(); err != nil {
					t.Error(err)
				}
				c.e.DetachBufferPool()
			}
			close(stop)
			wg.Wait()
		})
	}
}
