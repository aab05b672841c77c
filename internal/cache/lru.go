// Package cache provides the concurrency-safe cache the hot-path fast lanes
// are built from: a seeded, TTL-bounded LRU (the BRASS payload cache and the
// Pylon subscriber-set cache). A full cache inserts into the slot it evicts,
// so steady-state churn allocates nothing.
//
// The LRU takes an injected sim.Clock so expiry behaves identically under
// the wall clock and under the deterministic virtual-time engine, and it is
// seeded where it makes randomized decisions (TTL jitter), so a fleet of
// caches decorrelates its refreshes deterministically.
package cache

import (
	"fmt"
	"sync"
	"time"

	"bladerunner/internal/sim"
)

// entry is one LRU slot, linked into the intrusive recency list.
type entry[K comparable, V any] struct {
	key        K
	val        V
	expires    time.Time // zero when the cache has no TTL
	prev, next *entry[K, V]
}

// LRU is a fixed-capacity, TTL-bounded, least-recently-used cache. Safe for
// concurrent use. Expired entries are treated as absent on Get and reclaimed
// lazily; eviction removes the least recently used live entry.
type LRU[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	ttl     time.Duration
	jitter  float64
	clock   sim.Clock
	rng     uint64 // xorshift state for seeded TTL jitter
	entries map[K]*entry[K, V]
	// head is most recently used, tail least. Sentinel-free list.
	head, tail *entry[K, V]
}

// NewLRU builds a cache holding at most capacity entries. Entries expire ttl
// after insertion (ttl <= 0 disables expiry). jitter, in [0,1), shortens each
// entry's TTL by a seeded random fraction of up to jitter*ttl so co-resident
// entries do not all expire (and refetch) in the same instant. clock may be
// nil for the wall clock.
func NewLRU[K comparable, V any](capacity int, ttl time.Duration, jitter float64, clock sim.Clock, seed int64) *LRU[K, V] {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive LRU capacity %d", capacity))
	}
	if jitter < 0 || jitter >= 1 {
		panic(fmt.Sprintf("cache: LRU jitter %v outside [0,1)", jitter))
	}
	if clock == nil {
		clock = sim.RealClock{}
	}
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &LRU[K, V]{
		cap:     capacity,
		ttl:     ttl,
		jitter:  jitter,
		clock:   clock,
		rng:     s,
		entries: make(map[K]*entry[K, V], capacity),
	}
}

// Get returns the live value for key, marking it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	if !e.expires.IsZero() && !c.clock.Now().Before(e.expires) {
		c.removeLocked(e)
		var zero V
		return zero, false
	}
	c.moveToFrontLocked(e)
	return e.val, true
}

// Put inserts or replaces the value for key, marking it most recently used
// and restarting its TTL. The least recently used entry is evicted if the
// cache is full, and its slot holds the new key.
func (c *LRU[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.val = val
		e.expires = c.deadlineLocked()
		c.moveToFrontLocked(e)
		return
	}
	e := c.tail
	if len(c.entries) < c.cap {
		e = new(entry[K, V])
	} else {
		c.removeLocked(e)
	}
	*e = entry[K, V]{key: key, val: val, expires: c.deadlineLocked()}
	c.entries[key] = e
	c.pushFrontLocked(e)
}

// deadlineLocked computes a fresh entry deadline with seeded jitter.
func (c *LRU[K, V]) deadlineLocked() time.Time {
	if c.ttl <= 0 {
		return time.Time{}
	}
	ttl := c.ttl
	if c.jitter > 0 {
		// xorshift64: deterministic for a given seed and call sequence.
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		frac := float64(c.rng>>11) / float64(1<<53) // [0,1)
		ttl -= time.Duration(frac * c.jitter * float64(ttl))
	}
	return c.clock.Now().Add(ttl)
}

func (c *LRU[K, V]) pushFrontLocked(e *entry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *LRU[K, V]) moveToFrontLocked(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

func (c *LRU[K, V]) removeLocked(e *entry[K, V]) {
	c.unlinkLocked(e)
	delete(c.entries, e.key)
}

func (c *LRU[K, V]) unlinkLocked(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
