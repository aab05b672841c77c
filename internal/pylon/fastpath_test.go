package pylon

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bladerunner/internal/kvstore"
	"bladerunner/internal/sim"
)

// countingKV returns a cluster whose nodes count per-replica "view" ops —
// the reads the subscriber cache is supposed to eliminate.
func countingKV(t *testing.T) (*kvstore.Cluster, *atomic.Int64) {
	t.Helper()
	regions := []string{"us", "eu", "ap"}
	var views atomic.Int64
	nodes := make([]*kvstore.Node, 6)
	for i := range nodes {
		nodes[i] = kvstore.NewNode(fmt.Sprintf("kv%d", i), regions[i%3])
		nodes[i].SetOpHook(func(op, key string) error {
			if op == "view" {
				views.Add(1)
			}
			return nil
		})
	}
	return kvstore.MustNewCluster(nodes, 3), &views
}

// TestPublishServesFromCacheUntilInvalidated is the core fast-path
// contract: after one priming publish, repeat publishes to an unchanged
// topic do zero replica reads; any subscription mutation forces exactly one
// re-read.
func TestPublishServesFromCacheUntilInvalidated(t *testing.T) {
	kv, views := countingKV(t)
	s := MustNew(DefaultConfig(), kv)
	h1, h2 := &fakeHost{id: "h1"}, &fakeHost{id: "h2"}
	s.RegisterHost(h1)
	s.RegisterHost(h2)
	topic := Topic("/LVC/hot")
	if err := s.Subscribe(topic, "h1"); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Publish(Event{Topic: topic}); err != nil { // prime
		t.Fatal(err)
	}
	base := views.Load()
	for i := 0; i < 50; i++ {
		n, err := s.Publish(Event{Topic: topic})
		if err != nil || n != 1 {
			t.Fatalf("publish %d = %d, %v", i, n, err)
		}
	}
	if got := views.Load(); got != base {
		t.Fatalf("cached publishes did %d replica reads, want 0", got-base)
	}
	if s.SubCacheHits.Value() != 50 {
		t.Errorf("SubCacheHits = %d, want 50", s.SubCacheHits.Value())
	}

	// A subscribe invalidates: the next publish re-reads and sees h2.
	if err := s.Subscribe(topic, "h2"); err != nil {
		t.Fatal(err)
	}
	base = views.Load()
	n, err := s.Publish(Event{Topic: topic})
	if err != nil || n != 2 {
		t.Fatalf("post-subscribe publish = %d, %v; want 2 (h2 included)", n, err)
	}
	if views.Load() == base {
		t.Fatal("version bump did not force a replica re-read")
	}
	if s.SubCacheStale.Value() == 0 {
		t.Error("SubCacheStale never counted")
	}
	// And the refreshed entry serves the next publish without reads.
	base = views.Load()
	if _, err := s.Publish(Event{Topic: topic}); err != nil {
		t.Fatal(err)
	}
	if views.Load() != base {
		t.Error("refreshed entry not served from cache")
	}

	// An unsubscribe invalidates the same way.
	if err := s.Unsubscribe(topic, "h2"); err != nil {
		t.Fatal(err)
	}
	n, err = s.Publish(Event{Topic: topic})
	if err != nil || n != 1 {
		t.Fatalf("post-unsubscribe publish = %d, %v; want 1", n, err)
	}
}

// TestSubCacheTTLForcesPeriodicRefresh pins the periodic-refresh half of
// the invalidation contract: even with no version change, a cached entry
// older than the TTL re-reads the replicas.
func TestSubCacheTTLForcesPeriodicRefresh(t *testing.T) {
	kv, views := countingKV(t)
	clk := sim.NewManualClock(time.Unix(1700000000, 0))
	cfg := DefaultConfig()
	cfg.Clock = clk
	s := MustNew(cfg, kv)
	h := &fakeHost{id: "h"}
	s.RegisterHost(h)
	topic := Topic("/t")
	if err := s.Subscribe(topic, "h"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(Event{Topic: topic}); err != nil { // prime
		t.Fatal(err)
	}
	base := views.Load()
	if _, err := s.Publish(Event{Topic: topic}); err != nil {
		t.Fatal(err)
	}
	if views.Load() != base {
		t.Fatal("within-TTL publish read replicas")
	}
	clk.Advance(subCacheTTL + time.Millisecond) // jitter only shortens the TTL
	if _, err := s.Publish(Event{Topic: topic}); err != nil {
		t.Fatal(err)
	}
	if views.Load() == base {
		t.Fatal("expired entry served without a replica re-read")
	}
}

// TestSubCacheDisabled pins the opt-out: SubCacheSize=0 reads replicas on
// every publish, exactly the pre-fast-path behaviour.
func TestSubCacheDisabled(t *testing.T) {
	kv, views := countingKV(t)
	cfg := DefaultConfig()
	cfg.SubCacheSize = 0
	s := MustNew(cfg, kv)
	h := &fakeHost{id: "h"}
	s.RegisterHost(h)
	topic := Topic("/t")
	if err := s.Subscribe(topic, "h"); err != nil {
		t.Fatal(err)
	}
	before := views.Load()
	for i := 0; i < 5; i++ {
		if _, err := s.Publish(Event{Topic: topic}); err != nil {
			t.Fatal(err)
		}
	}
	if got := views.Load() - before; got < 5 {
		t.Fatalf("uncached publishes did %d replica reads, want >= 5", got)
	}
	if s.SubCacheHits.Value() != 0 {
		t.Error("cache metrics moved with cache disabled")
	}
}

// TestRemovedHostNeverDeliveredAfterRemoveHost pins the delivery guarantee
// the DESIGN doc leans on: after RemoveHost returns, no publish — cached
// subscriber list or not — delivers to the removed host, because delivery
// goes through the host snapshot, not the cache.
func TestRemovedHostNeverDeliveredAfterRemoveHost(t *testing.T) {
	kv, _ := countingKV(t)
	s := MustNew(DefaultConfig(), kv)
	h1, h2 := &fakeHost{id: "h1"}, &fakeHost{id: "h2"}
	s.RegisterHost(h1)
	s.RegisterHost(h2)
	topic := Topic("/LVC/hot")
	if err := s.Subscribe(topic, "h1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Subscribe(topic, "h2"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(Event{Topic: topic}); err != nil { // prime: cache holds h1+h2
		t.Fatal(err)
	}

	s.RemoveHost(h2.id)
	countAtRemove := h2.count()
	for i := 0; i < 20; i++ {
		if _, err := s.Publish(Event{Topic: topic}); err != nil {
			t.Fatal(err)
		}
	}
	if got := h2.count(); got != countAtRemove {
		t.Fatalf("removed host received %d deliveries after RemoveHost", got-countAtRemove)
	}
	// h1 is still live and must keep receiving.
	if h1.count() < 20 {
		t.Fatalf("live host received %d < 20 deliveries", h1.count())
	}
}

// TestSubscriberVisibleWithinOnePublishRound pins the staleness bound: a
// Subscribe that returned before a Publish started is seen by that publish
// (the version bump happens after the KV write, so the publish either hits
// a fresh entry or re-reads).
func TestSubscriberVisibleWithinOnePublishRound(t *testing.T) {
	kv, _ := countingKV(t)
	s := MustNew(DefaultConfig(), kv)
	topic := Topic("/t")
	for i := 0; i < 20; i++ {
		h := &fakeHost{id: fmt.Sprintf("h%d", i)}
		s.RegisterHost(h)
		if err := s.Subscribe(topic, h.id); err != nil {
			t.Fatal(err)
		}
		n, err := s.Publish(Event{Topic: topic})
		if err != nil {
			t.Fatal(err)
		}
		if n != i+1 {
			t.Fatalf("publish after %d subscribes reached %d hosts", i+1, n)
		}
	}
}

// TestChurnRacingPublishes drives concurrent Subscribe/Unsubscribe/
// RemoveHost/RegisterHost against a storm of publishes. Run under -race
// this checks the lock-free publish path; the assertions check the
// end-state converges (a final publish reaches exactly the surviving
// subscribers) and that no delivery ever reached a host after its
// RemoveHost completed.
func TestChurnRacingPublishes(t *testing.T) {
	kv, _ := countingKV(t)
	s := MustNew(DefaultConfig(), kv)
	topic := Topic("/LVC/churn")

	// A stable host that must never miss more than the in-flight round.
	stable := &fakeHost{id: "stable"}
	s.RegisterHost(stable)
	if err := s.Subscribe(topic, "stable"); err != nil {
		t.Fatal(err)
	}

	var (
		stop    atomic.Bool
		removed []*fakeHost
		remMu   sync.Mutex
	)
	var wg sync.WaitGroup

	// Churners: register/subscribe/unsubscribe/remove transient hosts.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				h := &fakeHost{id: fmt.Sprintf("churn-%d-%d", g, i)}
				s.RegisterHost(h)
				if err := s.Subscribe(topic, h.id); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := s.Unsubscribe(topic, h.id); err != nil {
						t.Error(err)
						return
					}
				}
				s.RemoveHost(h.id)
				remMu.Lock()
				removed = append(removed, h)
				remMu.Unlock()
			}
		}(g)
	}

	// Publishers: hammer the topic while the set churns.
	var published atomic.Int64
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := s.Publish(Event{Topic: topic}); err != nil {
					t.Error(err)
					return
				}
				published.Add(1)
			}
		}()
	}

	for published.Load() < 2000 {
		if t.Failed() {
			break
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// With all publishers drained, publishes that START after RemoveHost
	// returned must deliver nothing to removed hosts (only publishes already
	// in flight at removal time may have reached them).
	counts := make(map[string]int, len(removed))
	for _, h := range removed {
		counts[h.id] = h.count()
	}
	before := stable.count()
	for i := 0; i < 10; i++ {
		n, err := s.Publish(Event{Topic: topic})
		if err != nil {
			t.Fatal(err)
		}
		// The stable subscriber converges: every post-churn publish reaches
		// exactly it.
		if n != 1 {
			t.Fatalf("post-churn publish reached %d hosts, want 1 (stable)", n)
		}
	}
	if stable.count() != before+10 {
		t.Fatalf("stable host saw %d of 10 post-churn publishes", stable.count()-before)
	}
	for _, h := range removed {
		if got := h.count(); got != counts[h.id] {
			t.Fatalf("removed host %s delivered %d events after publishers drained", h.id, got-counts[h.id])
		}
	}
	// The stable host never missed a publish: it was subscribed before the
	// first publish and never churned.
	if int64(stable.count()) < published.Load() {
		t.Fatalf("stable host saw %d of %d churn-phase publishes", stable.count(), published.Load())
	}
}
