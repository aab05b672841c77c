package cache

import (
	"sync"
	"testing"
	"time"

	"bladerunner/internal/sim"
)

func TestLRUBasicPutGet(t *testing.T) {
	c := NewLRU[string, int](2, 0, 0, nil, 1)
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
	if len(c.entries) != 2 {
		t.Fatalf("%d entries resident, want 2", len(c.entries))
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewLRU[string, int](2, 0, 0, nil, 1)
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
	if len(c.entries) != 2 {
		t.Fatalf("%d entries resident after one eviction, want 2", len(c.entries))
	}
}

func TestLRUTTLExpiry(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	c := NewLRU[string, int](4, time.Second, 0, clk, 1)
	c.Put("a", 1)
	clk.Advance(999 * time.Millisecond)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	clk.Advance(2 * time.Millisecond)
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry survived past its TTL")
	}
	if len(c.entries) != 0 {
		t.Fatalf("%d entries resident, want the expired one reclaimed", len(c.entries))
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
		c := NewLRU[int, int](16, ttl, 0.5, clk, seed)
		var out []time.Time
		for i := 0; i < 8; i++ {
			c.Put(i, i)
			out = append(out, c.entries[i].expires)
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
	c := NewLRU[int, int](64, time.Millisecond, 0.3, nil, 42)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 100
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
	c := NewLRU[int, int](capacity, time.Minute, 0.5, nil, 1)
	next := 0
	for ; next < capacity; next++ {
		c.Put(next, next)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Put(next, next)
		next++
	}); allocs != 0 {
		t.Errorf("Put of a new key into a full cache: %v allocs/op, want 0", allocs)
	}
	if len(c.entries) != capacity {
		t.Fatalf("%d entries resident, want %d", len(c.entries), capacity)
	}
	if _, ok := c.Get(next - capacity - 1); ok {
		t.Error("the evicted key is still resident")
	}
	if v, ok := c.Get(next - 1); !ok || v != next-1 {
		t.Errorf("Get(%d) = %d, %v; want the last key put", next-1, v, ok)
	}
}
