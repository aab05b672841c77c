package cache

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/sim"
)

func TestLRUBasicPutGet(t *testing.T) {
	c := NewLRU[skey, int](2, 0, 0, nil, 1)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get(missing) hit")
	}
	c.Put("a", 10)
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("Get(a) after overwrite = %d, want 10", v)
	}
	if c.n != 2 {
		t.Fatalf("%d entries resident, want 2", c.n)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewLRU[skey, int](2, 0, 0, nil, 1)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // a is now more recent than b
	c.Put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; want LRU victim")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a was evicted; want it retained (recently used)")
	}
	if c.n != 2 {
		t.Fatalf("%d entries resident after one eviction, want 2", c.n)
	}
}

func TestLRUTTLExpiry(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	c := NewLRU[skey, int](4, time.Second, 0, clk, 1)
	c.Put("a", 1)
	clk.Advance(999 * time.Millisecond)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	clk.Advance(2 * time.Millisecond)
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry survived past its TTL")
	}
	if c.n != 0 {
		t.Fatalf("%d entries resident, want the expired one reclaimed", c.n)
	}
	// A Put restarts the TTL.
	c.Put("a", 2)
	clk.Advance(500 * time.Millisecond)
	if v, ok := c.Get("a"); !ok || v != 2 {
		t.Fatalf("Get after re-Put = %d, %v; want 2, true", v, ok)
	}
}

func TestLRUTTLJitterDeterministicAndBounded(t *testing.T) {
	const ttl = time.Second
	deadlines := func(seed int64) []time.Time {
		clk := sim.NewManualClock(time.Unix(0, 0))
		c := NewLRU[ikey, int](16, ttl, 0.5, clk, seed)
		var out []time.Time
		for i := 0; i < 8; i++ {
			c.Put(ikey(i), i)
			_, e := c.slot(ikey(i))
			out = append(out, e.expires)
		}
		return out
	}
	a, b := deadlines(7), deadlines(7)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("same seed, different jitter at %d: %v vs %v", i, a[i], b[i])
		}
		d := a[i].Sub(time.Unix(0, 0))
		if d <= ttl/2 || d > ttl {
			t.Fatalf("jittered TTL %v outside (%v, %v]", d, ttl/2, ttl)
		}
	}
	other := deadlines(8)
	same := true
	for i := range a {
		if !a[i].Equal(other[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

func TestLRUConcurrentAccess(t *testing.T) {
	c := NewLRU[ikey, int](64, time.Millisecond, 0.3, nil, 42)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := ikey((g*31 + i) % 100)
				if i%2 == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLRUPutAtCapacityAllocatesNothing holds the payload cache's miss path
// to no allocation of its own: a new key into a full cache takes the slot
// of the entry it evicts.
func TestLRUPutAtCapacityAllocatesNothing(t *testing.T) {
	const capacity = 64
	c := NewLRU[ikey, int](capacity, time.Minute, 0.5, nil, 1)
	next := 0
	for ; next < capacity; next++ {
		c.Put(ikey(next), next)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Put(ikey(next), next)
		next++
	}); allocs != 0 {
		t.Errorf("Put of a new key into a full cache: %v allocs/op, want 0", allocs)
	}
	if c.n != capacity {
		t.Fatalf("%d entries resident, want %d", c.n, capacity)
	}
	if _, ok := c.Get(ikey(next - capacity - 1)); ok {
		t.Error("the evicted key is still resident")
	}
	if v, ok := c.Get(ikey(next - 1)); !ok || v != next-1 {
		t.Errorf("Get(%d) = %d, %v; want the last key put", next-1, v, ok)
	}
}

// TestLRUChurnKeepsItsKeys: after 2.56 M distinct inserts the cache holds
// the last 64 and nothing else. What it retains under that churn is a row of
// the root TestRetainedCensus.
func TestLRUChurnKeepsItsKeys(t *testing.T) {
	const capacity, churn = 64, 2_560_000
	c := NewLRU[pkey, int](capacity, time.Minute, 0.25, nil, 1)
	for i := uint64(0); i < churn; i++ {
		c.Put(pkey{i, 1}, int(i))
	}
	for i := uint64(churn - capacity); i < churn; i++ {
		if v, ok := c.Get(pkey{i, 1}); !ok || v != int(i) {
			t.Fatalf("Get(%d) = %d, %v; want the key resident", i, v, ok)
		}
	}
	if _, ok := c.Get(pkey{churn - capacity - 1, 1}); ok || c.n != capacity {
		t.Fatalf("%d entries resident and the last evicted key found %v, want %d and false", c.n, ok, capacity)
	}
}

// TestLRUMatchesReference drives a small cache over few keys, so probe runs
// collide and wrap and removals shift them, and checks every Get and the
// resident count against a slice kept in recency order.
func TestLRUMatchesReference(t *testing.T) {
	const capacity, keys = 5, 23
	c := NewLRU[ikey, int](capacity, 0, 0, nil, 1)
	var recent []int // most recently used first
	vals := map[int]int{}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 50000; step++ {
		k := rng.Intn(keys)
		at := slices.Index(recent, k)
		if rng.Intn(2) == 0 {
			c.Put(ikey(k), step)
			vals[k] = step
			if at >= 0 {
				recent = slices.Delete(recent, at, at+1)
			} else if len(recent) == capacity {
				recent = recent[:capacity-1]
			}
			recent = slices.Insert(recent, 0, k)
		} else {
			v, ok := c.Get(ikey(k))
			if ok != (at >= 0) || ok && v != vals[k] {
				t.Fatalf("step %d: Get(%d) = %d, %v; the reference holds %v", step, k, v, ok, recent)
			}
			if ok {
				recent = slices.Insert(slices.Delete(recent, at, at+1), 0, k)
			}
		}
		if c.n != len(recent) {
			t.Fatalf("step %d: %d entries resident, the reference holds %v", step, c.n, recent)
		}
	}
}

// skey and ikey are string and integer keys for the tests' caches.
type skey string

func (k skey) Hash() uint64 { return StringHash(string(k)) }

type ikey int

func (k ikey) Hash() uint64 { return Uint64Hash(uint64(k)) }

// pkey is the payload cache's key shape.
type pkey struct{ id, ref uint64 }

func (k pkey) Hash() uint64 { return Uint64Hash(k.id ^ Uint64Hash(k.ref)) }
