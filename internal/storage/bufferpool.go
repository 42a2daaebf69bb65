package storage

import "sync"

// BufferPool stands in for the main-memory buffer (the OS cache) in front of
// the simulated disk. It owns no memory and saves no read: for each node
// access it decides whether a buffer of its byte budget would have held the
// node, and counts the hits and misses.
//
// The pool is one exact LRU under one mutex, charged in bytes. Its slots are
// indexed densely by node id, in a slice grown to the largest id touched, and
// the resident nodes' slots form an intrusive recency list, so a touch
// allocates nothing in steady state. Byte charges let compressed (v2) and raw
// (v1) pages share one honest memory budget: a page count would let the
// compressed index appear to need the same buffer as the raw one.
type BufferPool struct {
	mu         sync.Mutex
	budget     int64      // bytes; 0 = unbounded
	used       int64      // the resident nodes' charges
	nodes      int        // the resident nodes
	slots      []poolSlot // by node id
	head, tail int32      // most and least recently used node, -1 when empty
	hits       int64
	misses     int64
}

type poolSlot struct {
	prev, next int32 // recency neighbours, -1 at the list's ends
	size       int32 // the node's byte charge while resident
	resident   bool
}

// NewBufferPoolBytes creates a pool bounded by resident bytes. A
// byteCapacity of zero or less means unbounded: every node hits after its
// first touch.
func NewBufferPoolBytes(byteCapacity int64) *BufferPool {
	return &BufferPool{budget: max(byteCapacity, 0), head: -1, tail: -1}
}

// TouchSized records an access to node id, whose resident size is bytes, and
// reports whether it was a hit, which it is exactly when the node is
// resident. The node becomes the most recently used and is charged bytes
// (a node rewritten at another size is re-charged); then least recently
// used nodes are evicted until the budget holds again. The node just touched
// is never evicted, so one larger than the whole budget still caches itself.
// A pool serves the node ids of one tree.
func (b *BufferPool) TouchSized(id int32, bytes int) bool {
	b.mu.Lock()
	if n := int(id) + 1; n > len(b.slots) {
		b.slots = append(b.slots, make([]poolSlot, n-len(b.slots))...)
	}
	s := &b.slots[id]
	hit := s.resident
	if hit {
		b.hits++
		b.used -= int64(s.size)
		b.unlink(id)
	} else {
		b.misses++
		b.nodes++
		s.resident = true
	}
	s.size = int32(max(bytes, 0))
	b.used += int64(s.size)
	b.pushFront(id)
	for b.budget > 0 && b.used > b.budget && b.tail != id {
		victim := b.tail
		b.unlink(victim)
		b.slots[victim].resident = false
		b.used -= int64(b.slots[victim].size)
		b.nodes--
	}
	b.mu.Unlock()
	return hit
}

func (b *BufferPool) unlink(id int32) {
	s := &b.slots[id]
	if s.prev >= 0 {
		b.slots[s.prev].next = s.next
	} else {
		b.head = s.next
	}
	if s.next >= 0 {
		b.slots[s.next].prev = s.prev
	} else {
		b.tail = s.prev
	}
}

func (b *BufferPool) pushFront(id int32) {
	s := &b.slots[id]
	s.prev, s.next = -1, b.head
	if b.head >= 0 {
		b.slots[b.head].prev = id
	} else {
		b.tail = id
	}
	b.head = id
}

// Contains reports whether node id is resident, without updating recency or
// statistics.
func (b *BufferPool) Contains(id int32) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(id) < len(b.slots) && b.slots[id].resident
}

// Len returns the number of resident nodes.
func (b *BufferPool) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nodes
}

// BytesResident returns the resident nodes' total byte charge.
func (b *BufferPool) BytesResident() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Stats returns the cumulative hit and miss counts.
func (b *BufferPool) Stats() (hits, misses int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hits, b.misses
}

// Reset empties the pool and zeroes the statistics (a cold start).
func (b *BufferPool) Reset() {
	b.mu.Lock()
	clear(b.slots)
	b.used, b.nodes = 0, 0
	b.head, b.tail = -1, -1
	b.hits, b.misses = 0, 0
	b.mu.Unlock()
}
