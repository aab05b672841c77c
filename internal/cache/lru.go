// Package cache provides the concurrency-safe cache the hot-path fast lanes
// are built from: a seeded, TTL-bounded LRU (each BRASS instance's payload
// cache and the Pylon subscriber-set cache). A full cache inserts into the
// slot it evicts, so steady-state churn allocates nothing.
//
// The LRU takes an injected sim.Clock so expiry behaves identically under
// the wall clock and under the deterministic virtual-time engine, and it is
// seeded where it makes randomized decisions (TTL jitter), so a fleet of
// caches decorrelates its refreshes deterministically.
package cache

import (
	"fmt"
	"hash/maphash"
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
type LRU[K Key, V any] struct {
	mu     sync.Mutex
	cap    int
	ttl    time.Duration
	jitter float64
	clock  sim.Clock
	rng    uint64 // xorshift state for seeded TTL jitter
	// index is an open-addressed table of the live entries, linear probing
	// from each key's hash, sized once to at least twice the capacity.
	// Deletion shifts the probe run back rather than leaving a tombstone,
	// so churn never grows it.
	index []*entry[K, V]
	n     int // live entries
	// head is most recently used, tail least. Sentinel-free list.
	head, tail *entry[K, V]
}

// NewLRU builds a cache holding at most capacity entries. Entries expire ttl
// after insertion (ttl <= 0 disables expiry). jitter, in [0,1), shortens each
// entry's TTL by a seeded random fraction of up to jitter*ttl so co-resident
// entries do not all expire (and refetch) in the same instant. clock may be
// nil for the wall clock.
func NewLRU[K Key, V any](capacity int, ttl time.Duration, jitter float64, clock sim.Clock, seed int64) *LRU[K, V] {
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
	slots := 2
	for slots < 2*capacity {
		slots *= 2
	}
	return &LRU[K, V]{
		cap:    capacity,
		ttl:    ttl,
		jitter: jitter,
		clock:  clock,
		rng:    s,
		index:  make([]*entry[K, V], slots),
	}
}

// Key is what an LRU is keyed by: a comparable value whose Hash spreads it
// over the cache's index (StringHash for a string, Uint64Hash of its fields
// for integers).
type Key interface {
	comparable
	Hash() uint64
}

var stringSeed = maphash.MakeSeed()

// StringHash hashes a string.
func StringHash(s string) uint64 { return maphash.String(stringSeed, s) }

// Uint64Hash hashes an integer: splitmix64's finalizer, so
// keys that differ in a few low bits land far apart.
func Uint64Hash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// slot returns the index slot that holds key, or the empty slot that ends
// its probe run, and the entry there (nil when key is absent).
func (c *LRU[K, V]) slot(key K) (int, *entry[K, V]) {
	mask := len(c.index) - 1
	for i := c.home(key); ; i = (i + 1) & mask {
		if e := c.index[i]; e == nil || e.key == key {
			return i, e
		}
	}
}

// home is the slot key's probe run starts at.
func (c *LRU[K, V]) home(key K) int {
	return int(key.Hash() & uint64(len(c.index)-1))
}

// Get returns the live value for key, marking it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, e := c.slot(key)
	if e == nil {
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
	i, e := c.slot(key)
	if e != nil {
		e.val = val
		e.expires = c.deadlineLocked()
		c.moveToFrontLocked(e)
		return
	}
	e = c.tail
	if c.n < c.cap {
		e = new(entry[K, V])
	} else {
		c.removeLocked(e)
		i, _ = c.slot(key) // the removal may have shifted key's run
	}
	*e = entry[K, V]{key: key, val: val, expires: c.deadlineLocked()}
	c.index[i] = e
	c.n++
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

// removeLocked unlinks e and deletes it from the index, moving each later
// entry of its probe run that may sit at the hole back into it (backward
// shift), so every live key stays reachable from its home without a
// tombstone.
func (c *LRU[K, V]) removeLocked(e *entry[K, V]) {
	c.unlinkLocked(e)
	c.n--
	mask := len(c.index) - 1
	hole, _ := c.slot(e.key)
	for j := hole; ; {
		j = (j + 1) & mask
		next := c.index[j]
		if next == nil {
			break
		}
		// next moves back when the hole is on its probe path: its home is
		// at or before the hole, counting along the run.
		if (j-c.home(next.key))&mask >= (j-hole)&mask {
			c.index[hole] = next
			hole = j
		}
	}
	c.index[hole] = nil
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
