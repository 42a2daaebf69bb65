package storage

import (
	"math/rand"
	"sync"
	"testing"
)

func TestBufferPoolLRU(t *testing.T) {
	b := NewBufferPoolBytes(200)
	if b.TouchSized(1, 100) {
		t.Error("first touch must be a miss")
	}
	if !b.TouchSized(1, 100) {
		t.Error("second touch must be a hit")
	}
	b.TouchSized(2, 100)
	b.TouchSized(3, 100) // evicts 1 (least recently used)
	if b.Contains(1) {
		t.Error("node 1 should have been evicted")
	}
	if !b.Contains(2) || !b.Contains(3) {
		t.Error("nodes 2 and 3 should be resident")
	}
	if b.Len() != 2 || b.BytesResident() != 200 {
		t.Errorf("Len = %d, BytesResident = %d, want 2 and 200", b.Len(), b.BytesResident())
	}
	hits, misses := b.Stats()
	if hits != 1 || misses != 3 {
		t.Errorf("Stats = %d hits %d misses", hits, misses)
	}
	b.Reset()
	if b.Len() != 0 || b.BytesResident() != 0 || b.Contains(2) {
		t.Error("Reset should empty the pool")
	}
	if h, m := b.Stats(); h != 0 || m != 0 {
		t.Error("Reset should zero statistics")
	}
}

func TestBufferPoolRecencyOrder(t *testing.T) {
	b := NewBufferPoolBytes(200)
	b.TouchSized(1, 100)
	b.TouchSized(2, 100)
	b.TouchSized(1, 100) // 1 becomes most recent
	b.TouchSized(3, 100) // should evict 2, not 1
	if !b.Contains(1) || b.Contains(2) {
		t.Error("LRU recency not respected")
	}
}

func TestBufferPoolUnbounded(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		b := NewBufferPoolBytes(budget)
		for i := int32(0); i < 1000; i++ {
			b.TouchSized(i, 4096)
		}
		if b.Len() != 1000 || b.BytesResident() != 1000*4096 {
			t.Errorf("budget %d: an unbounded pool should keep everything, has %d nodes, %d B", budget, b.Len(), b.BytesResident())
		}
	}
}

func TestBufferPoolConcurrency(t *testing.T) {
	b := NewBufferPoolBytes(64 * 100)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.TouchSized(int32(i%100+g), 100)
			}
		}(g)
	}
	wg.Wait()
	hits, misses := b.Stats()
	if hits+misses != 2000 {
		t.Fatalf("lost touches: hits+misses = %d", hits+misses)
	}
	if b.Len() != 64 || b.BytesResident() != 6400 {
		t.Fatalf("a full 6400 B pool of 100 B nodes holds %d nodes, %d B", b.Len(), b.BytesResident())
	}
}

func TestUnshardedBufferPoolExactLRU(t *testing.T) {
	// LRU is a stack algorithm: on one access sequence a larger exact-LRU pool
	// holds a superset of a smaller one's nodes, so its misses never exceed
	// the smaller pool's — a cold run's misses shrink as the pool grows.
	var seq []int32
	distinct := map[int32]bool{}
	for i := 0; i < 5000; i++ {
		seq = append(seq, int32((i*i+7*i)%397))
		distinct[seq[i]] = true
	}
	prev := int64(len(seq) + 1)
	for _, capacity := range []int64{1, 8, 64, 200, 397} {
		b := NewBufferPoolBytes(capacity * 64)
		for _, id := range seq {
			b.TouchSized(id, 64)
		}
		_, misses := b.Stats()
		if misses > prev {
			t.Fatalf("pool of %d nodes missed %d times, a smaller one %d", capacity, misses, prev)
		}
		prev = misses
	}
	if prev != int64(len(distinct)) {
		t.Fatalf("a pool holding every node missed %d times, want one per node (%d)", prev, len(distinct))
	}

	// Eviction is exact global LRU at any budget.
	b := NewBufferPoolBytes(256 * 64)
	for i := int32(1); i <= 256; i++ {
		b.TouchSized(i, 64)
	}
	b.TouchSized(1, 64)   // node 1 becomes most recent
	b.TouchSized(300, 64) // must evict node 2, the global LRU victim
	if !b.Contains(1) || b.Contains(2) || !b.Contains(300) {
		t.Fatalf("pool is not an exact LRU: contains(1)=%v contains(2)=%v contains(300)=%v",
			b.Contains(1), b.Contains(2), b.Contains(300))
	}
	if b.Len() != 256 {
		t.Fatalf("Len %d, want 256", b.Len())
	}
}

func TestBufferPoolBytesEviction(t *testing.T) {
	p := NewBufferPoolBytes(1000)
	for id := int32(1); id <= 3; id++ {
		if p.TouchSized(id, 300) {
			t.Fatalf("first touch of node %d was a hit", id)
		}
	}
	if got := p.BytesResident(); got != 900 {
		t.Fatalf("BytesResident = %d, want 900", got)
	}
	// Admitting a fourth 300 B node busts the budget: the LRU (node 1) goes.
	if p.TouchSized(4, 300) {
		t.Fatal("first touch of node 4 was a hit")
	}
	if p.Contains(1) {
		t.Error("node 1 should have been evicted as the LRU")
	}
	for id := int32(2); id <= 4; id++ {
		if !p.TouchSized(id, 300) {
			t.Errorf("node %d should still be resident", id)
		}
	}
	if got := p.BytesResident(); got > 1000 {
		t.Errorf("BytesResident = %d exceeds the 1000 B budget", got)
	}
}

func TestBufferPoolBytesLRUOrder(t *testing.T) {
	p := NewBufferPoolBytes(600)
	p.TouchSized(1, 200)
	p.TouchSized(2, 200)
	p.TouchSized(3, 200)
	p.TouchSized(1, 200) // refresh 1: now 2 is the LRU
	p.TouchSized(4, 200)
	if p.Contains(2) {
		t.Error("node 2 (the LRU) should have been evicted")
	}
	if !p.Contains(1) || !p.Contains(3) || !p.Contains(4) {
		t.Error("recently touched nodes were evicted")
	}
}

func TestBufferPoolBytesOversizedPage(t *testing.T) {
	// A single node larger than the whole budget still caches itself: the
	// node just touched is never its own eviction victim.
	p := NewBufferPoolBytes(100)
	if p.TouchSized(7, 5000) {
		t.Fatal("first touch was a hit")
	}
	if !p.TouchSized(7, 5000) {
		t.Error("oversized node must stay resident until another touch")
	}
	// The next admission evicts it straight away.
	p.TouchSized(8, 10)
	if p.Contains(7) {
		t.Error("oversized node must be evicted once something else arrives")
	}
	if !p.Contains(8) {
		t.Error("small node must be resident")
	}
}

func TestBufferPoolBytesSizeChange(t *testing.T) {
	p := NewBufferPoolBytes(1000)
	p.TouchSized(1, 300)
	if !p.TouchSized(1, 500) { // the node was rewritten larger
		t.Fatal("re-touch was a miss")
	}
	if got := p.BytesResident(); got != 500 {
		t.Errorf("BytesResident = %d after size change, want 500", got)
	}
}

func TestBufferPoolBytesReset(t *testing.T) {
	p := NewBufferPoolBytes(1 << 20)
	for id := int32(1); id <= 64; id++ {
		p.TouchSized(id, 1000)
	}
	if p.Len() != 64 || p.BytesResident() != 64000 {
		t.Fatalf("pre-reset Len=%d BytesResident=%d", p.Len(), p.BytesResident())
	}
	p.Reset()
	if p.Len() != 0 || p.BytesResident() != 0 {
		t.Errorf("post-reset Len=%d BytesResident=%d, want 0/0", p.Len(), p.BytesResident())
	}
	if h, m := p.Stats(); h != 0 || m != 0 {
		t.Errorf("post-reset stats (%d, %d), want zeroed", h, m)
	}
	if p.TouchSized(1, 1000) {
		t.Error("post-reset touch was a hit")
	}
}

// lruModel is the brute-force reference for BufferPool: the resident nodes
// as a list, most recently used first.
type lruModel struct {
	budget       int64
	order        []modelEntry
	hits, misses int64
}

type modelEntry struct {
	id   int32
	size int64
}

func (m *lruModel) touch(id int32, size int) bool {
	hit := false
	for i, e := range m.order {
		if e.id == id {
			hit = true
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	if hit {
		m.hits++
	} else {
		m.misses++
	}
	m.order = append([]modelEntry{{id, int64(size)}}, m.order...)
	for m.budget > 0 && m.used() > m.budget && len(m.order) > 1 {
		m.order = m.order[:len(m.order)-1]
	}
	return hit
}

func (m *lruModel) used() int64 {
	var n int64
	for _, e := range m.order {
		n += e.size
	}
	return n
}

// TestBufferPoolMatchesReference runs seeded random touch sequences — nodes
// of random sizes, some rewritten at another size, now and then a reset —
// against the brute-force LRU list, and compares the verdict, the resident
// set, the resident bytes, the node count and the statistics after every
// touch. The budgets hold from under one node to several hundred nodes.
func TestBufferPoolMatchesReference(t *testing.T) {
	const ids = 600
	for _, budget := range []int64{0, 300, 5_000, 60_000, 128 * 500, 250_000} {
		rng := rand.New(rand.NewSource(budget + 1))
		pool := NewBufferPoolBytes(budget)
		model := &lruModel{budget: budget}
		sizes := make([]int, ids)
		for i := range sizes {
			sizes[i] = rng.Intn(1000)
		}
		for step := 0; step < 20_000; step++ {
			if rng.Intn(5000) == 0 {
				pool.Reset()
				model = &lruModel{budget: budget}
			}
			// A skewed working set: most touches go to a hot third of the ids.
			id := int32(rng.Intn(ids))
			if rng.Intn(4) != 0 {
				id = int32(rng.Intn(ids / 3))
			}
			if rng.Intn(20) == 0 {
				sizes[id] = rng.Intn(1000) // the node was rewritten
			}
			got, want := pool.TouchSized(id, sizes[id]), model.touch(id, sizes[id])
			if got != want {
				t.Fatalf("budget %d, step %d: touch of node %d hit=%v, reference %v", budget, step, id, got, want)
			}
			if pool.BytesResident() != model.used() || pool.Len() != len(model.order) {
				t.Fatalf("budget %d, step %d: %d nodes, %d B resident, reference %d nodes, %d B",
					budget, step, pool.Len(), pool.BytesResident(), len(model.order), model.used())
			}
			if h, m := pool.Stats(); h != model.hits || m != model.misses {
				t.Fatalf("budget %d, step %d: stats %d/%d, reference %d/%d", budget, step, h, m, model.hits, model.misses)
			}
			if step%97 == 0 {
				resident := make(map[int32]bool, len(model.order))
				for _, e := range model.order {
					resident[e.id] = true
				}
				for i := int32(0); i < ids; i++ {
					if pool.Contains(i) != resident[i] {
						t.Fatalf("budget %d, step %d: Contains(%d) = %v, reference %v", budget, step, i, pool.Contains(i), resident[i])
					}
				}
			}
		}
	}
}
