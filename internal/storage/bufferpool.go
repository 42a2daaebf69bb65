package storage

import "sync"

// BufferPool is an LRU page cache used to emulate a bounded main-memory
// buffer in front of the simulated disk. The scalability experiment
// (Figure 15 of the paper) starts with a cold buffer and lets the "OS cache"
// retain recently touched nodes; BufferPool reproduces that behaviour and
// reports hit/miss counts so experiments can charge a cost to misses.
//
// The pool is lock-striped so parallel batch searches do not serialise on a
// single mutex: pages hash onto independent shards, each holding an
// intrusive array-based LRU list under a budget. There is one LRU: a
// page-count pool charges every page one unit, a byte-budget pool charges a
// page its byte size, and an unbounded pool never evicts. Touch performs no
// per-access heap allocation in steady state.
//
// Sharding semantics: an unbounded pool behaves exactly like a single LRU
// for any shard count (a page hits iff it was touched before). A bounded
// pool partitions its capacity across shards, so eviction decisions are
// per-shard approximations of a global LRU — the standard trade-off of
// lock-striped caches. Small bounded pools (capacity < 2·64) use a single
// shard and therefore keep exact global-LRU behaviour.
type BufferPool struct {
	shards []poolShard
	shift  uint // 64 - log2(len(shards)); used when len(shards) > 1
	sized  bool // charge pages their byte size (NewBufferPoolBytes), not 1
}

const (
	// poolMaxShards is the stripe count of unbounded and large bounded
	// pools; a power of two so page hashes map onto shards with a shift.
	poolMaxShards = 16
	// poolMinShardCap is the smallest per-shard capacity worth splitting
	// for: below it, eviction behaviour would be dominated by hash noise
	// rather than recency.
	poolMinShardCap = 64
)

// poolShardsFor picks the stripe count: unbounded pools always use the
// maximum, bounded pools double the stripe count only while every shard
// keeps at least poolMinShardCap pages.
func poolShardsFor(capacity int) int {
	if capacity <= 0 {
		return poolMaxShards
	}
	n := 1
	for n*2 <= poolMaxShards && capacity/(n*2) >= poolMinShardCap {
		n *= 2
	}
	return n
}

// poolShard is one stripe: a mutex, the page index, and an intrusive doubly
// linked LRU list threaded through a flat slot array — no container/list, no
// allocation per touch.
type poolShard struct {
	mu sync.Mutex
	// budget bounds used, the sum of the resident pages' charges (0 =
	// unbounded). Freed slots are recycled through freeSlots because
	// evictions and admissions need not pair one-to-one when charges differ.
	budget    int64
	used      int64
	freeSlots []int32
	index     map[PageID]int32
	slots     []poolSlot
	head      int32 // most recently used, -1 when empty
	tail      int32 // least recently used, -1 when empty
	hits      int64
	misses    int64
	// Pad the 104 bytes of fields above to 128 — two 64-byte cache lines —
	// so the per-shard mutexes and counters of adjacent shards never share
	// a cache line under parallel batch search.
	_ [3]int64
}

type poolSlot struct {
	id         PageID
	size       int64 // the page's charge against the shard's budget
	prev, next int32
}

// NewBufferPool creates a pool holding at most capacity pages. A capacity of
// zero or less means "unbounded" (everything is a hit after first touch).
func NewBufferPool(capacity int) *BufferPool {
	return newBufferPool(capacity, poolShardsFor(capacity))
}

// NewBufferPoolBytes creates a pool bounded by resident bytes instead of page
// count: TouchSized charges each page's actual encoded size, and the LRU
// evicts until the shard is back under its byte budget. This is how
// compressed (v2) and raw (v1) snapshots share one honest memory budget — a
// page-count pool would let the compressed index appear to need the same
// buffer as the raw one. A byteCapacity of zero or less means unbounded.
func NewBufferPoolBytes(byteCapacity int64) *BufferPool {
	if byteCapacity <= 0 {
		return NewBufferPool(0)
	}
	return newBufferPoolBytes(byteCapacity, poolMaxShards)
}

func newBufferPoolBytes(byteCapacity int64, shards int) *BufferPool {
	b := newBufferPool(0, shards)
	b.sized = true
	b.split(byteCapacity)
	for i := range b.shards {
		b.shards[i].budget = max(b.shards[i].budget, 1)
	}
	return b
}

func newBufferPool(capacity, shards int) *BufferPool {
	b := &BufferPool{shards: make([]poolShard, shards)}
	for s := shards; s > 1; s >>= 1 {
		b.shift++
	}
	b.shift = 64 - b.shift
	for i := range b.shards {
		sh := &b.shards[i]
		sh.index = make(map[PageID]int32)
		sh.head, sh.tail = -1, -1
	}
	b.split(int64(max(capacity, 0)))
	return b
}

// split divides a total budget across the shards as evenly as possible.
func (b *BufferPool) split(total int64) {
	n := int64(len(b.shards))
	for i := range b.shards {
		b.shards[i].budget = total / n
		if int64(i) < total%n {
			b.shards[i].budget++
		}
	}
}

// shard maps a page id onto its stripe with a Fibonacci hash, so the
// sequential page ids of one tree spread evenly.
func (b *BufferPool) shard(id PageID) *poolShard {
	if len(b.shards) == 1 {
		return &b.shards[0]
	}
	return &b.shards[(uint64(id)*0x9E3779B97F4A7C15)>>b.shift]
}

// Touch records an access to the page and reports whether it was a buffer
// hit. On a miss the page is admitted, possibly evicting the shard's least
// recently used page. On a byte-budget pool Touch charges zero bytes; use
// TouchSized when the page's size is known.
func (b *BufferPool) Touch(id PageID) bool {
	return b.TouchSized(id, 0)
}

// TouchSized is Touch with the page's resident byte size attached. Page-count
// pools charge every page one unit whatever its size, so it is always safe to
// pass; byte-budget pools charge it against the shard's budget. Either way
// least-recently-used pages are evicted until the budget holds again (the
// page just touched is never evicted, so a single page larger than the whole
// budget still caches itself).
func (b *BufferPool) TouchSized(id PageID, bytes int) bool {
	size := int64(1)
	if b.sized {
		size = int64(max(bytes, 0))
	}
	s := b.shard(id)
	s.mu.Lock()
	hit := s.touchCharged(id, size)
	s.mu.Unlock()
	return hit
}

// touchCharged records an access to the page, charging it size units.
func (s *poolShard) touchCharged(id PageID, size int64) bool {
	if slot, ok := s.index[id]; ok {
		s.hits++
		sl := &s.slots[slot]
		if sl.size != size {
			// A page's size can legitimately change across epochs (a node
			// rewritten by a flush); keep the charge honest.
			s.used += size - sl.size
			sl.size = size
		}
		if s.head != slot {
			s.unlink(slot)
			s.pushFront(slot)
		}
		s.evictOver(slot)
		return true
	}
	s.misses++
	var slot int32
	if n := len(s.freeSlots); n > 0 {
		slot = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		s.slots[slot] = poolSlot{id: id, size: size}
	} else {
		slot = int32(len(s.slots))
		s.slots = append(s.slots, poolSlot{id: id, size: size})
	}
	s.pushFront(slot)
	s.index[id] = slot
	s.used += size
	s.evictOver(slot)
	return false
}

// evictOver drops least-recently-used pages until the shard is within its
// budget, never evicting the page just touched.
func (s *poolShard) evictOver(keep int32) {
	for s.budget > 0 && s.used > s.budget && s.tail >= 0 && s.tail != keep {
		victim := s.tail
		s.unlink(victim)
		s.used -= s.slots[victim].size
		delete(s.index, s.slots[victim].id)
		s.slots[victim] = poolSlot{}
		s.freeSlots = append(s.freeSlots, victim)
	}
}

func (s *poolShard) unlink(slot int32) {
	sl := &s.slots[slot]
	if sl.prev >= 0 {
		s.slots[sl.prev].next = sl.next
	} else {
		s.head = sl.next
	}
	if sl.next >= 0 {
		s.slots[sl.next].prev = sl.prev
	} else {
		s.tail = sl.prev
	}
}

func (s *poolShard) pushFront(slot int32) {
	sl := &s.slots[slot]
	sl.prev = -1
	sl.next = s.head
	if s.head >= 0 {
		s.slots[s.head].prev = slot
	}
	s.head = slot
	if s.tail < 0 {
		s.tail = slot
	}
}

// Contains reports whether the page is currently buffered, without updating
// recency or statistics.
func (b *BufferPool) Contains(id PageID) bool {
	s := b.shard(id)
	s.mu.Lock()
	_, ok := s.index[id]
	s.mu.Unlock()
	return ok
}

// Len returns the number of buffered pages.
func (b *BufferPool) Len() int {
	n := 0
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		n += len(s.index)
		s.mu.Unlock()
	}
	return n
}

// BytesResident returns the total byte charge currently held by a
// byte-budget pool (always 0 for page-count pools, which do not track sizes).
func (b *BufferPool) BytesResident() int64 {
	if !b.sized {
		return 0
	}
	var n int64
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		n += s.used
		s.mu.Unlock()
	}
	return n
}

// Stats returns the cumulative hit and miss counts.
func (b *BufferPool) Stats() (hits, misses int64) {
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// Reset empties the pool and zeroes the statistics (a "cold start").
func (b *BufferPool) Reset() {
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		s.index = make(map[PageID]int32)
		s.slots = s.slots[:0]
		s.freeSlots = s.freeSlots[:0]
		s.used = 0
		s.head, s.tail = -1, -1
		s.hits, s.misses = 0, 0
		s.mu.Unlock()
	}
}
