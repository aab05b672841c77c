// Chaos run for the Pylon subscriber-cache fast path: seeded replica
// up/down flapping plus host churn racing a publish storm, with the cache
// enabled. The two invariants under test are the ones the cache must not
// weaken: a publish that starts after RemoveHost returns never delivers to
// the removed host, and a live subscriber that was registered before the
// chaos window never misses a successful publish round (the cached member
// list always contains it).
package faults_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
)

// recHost is a minimal recording pylon.Subscriber.
type recHost struct {
	id string
	n  atomic.Int64
}

// kvDown is the fault hook of a KV node that is down: every op fails.
func kvDown(op, key string) error { return kvstore.ErrNodeDown }

func (h *recHost) ID() string             { return h.id }
func (h *recHost) Deliver(ev pylon.Event) { h.n.Add(1) }

// TestChaosSubscriberCacheInvariants flips KV replicas up and down on a
// seeded schedule while transient hosts churn and publishers hammer one hot
// topic. Publishes may fail while quorum is broken — that is the paper's
// best-effort contract — but no success may skip the stable subscriber, and
// removed hosts must go silent once in-flight rounds drain.
func TestChaosSubscriberCacheInvariants(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))

	regions := []string{"us", "eu", "ap"}
	nodes := make([]*kvstore.Node, 6)
	for i := range nodes {
		nodes[i] = kvstore.NewNode(fmt.Sprintf("kv%d", i), regions[i%3])
	}
	kv := kvstore.MustNewCluster(nodes, 3)
	s := pylon.MustNew(pylon.DefaultConfig(), kv) // cache enabled by default
	topic := pylon.Topic("/LVC/chaos-hot")

	stable := &recHost{id: "stable"}
	s.RegisterHost(stable)
	if err := s.Subscribe(topic, "stable"); err != nil {
		t.Fatal(err)
	}

	var (
		stop       atomic.Bool
		successful atomic.Int64
		removed    []*recHost
		remMu      sync.Mutex
		wg         sync.WaitGroup
	)

	// Replica flapper: seeded up/down schedule, never more than one node
	// down at a time so quorum usually survives (the seed decides when the
	// down node overlaps the topic's replica set).
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := rand.New(rand.NewSource(seed * 7919))
		down := -1
		for i := 0; !stop.Load(); i++ {
			if down >= 0 {
				nodes[down].SetOpHook(nil)
				down = -1
			} else {
				down = src.Intn(len(nodes))
				nodes[down].SetOpHook(kvDown)
			}
			// A burst of scheduling points between flips.
			for j := 0; j < 50 && !stop.Load(); j++ {
				_, _ = s.Publish(pylon.Event{Topic: topic})
			}
		}
		if down >= 0 {
			nodes[down].SetOpHook(nil)
		}
	}()

	// Churners: transient hosts subscribe and are removed; writes may fail
	// with ErrNoQuorum during a flap, which is fine — RemoveHost still
	// purges the host from the delivery map.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rand.New(rand.NewSource(seed*31 + int64(g)))
			for i := 0; !stop.Load(); i++ {
				h := &recHost{id: fmt.Sprintf("churn-%d-%d", g, i)}
				s.RegisterHost(h)
				_ = s.Subscribe(topic, h.id) // tolerated: quorum may be broken
				if src.Intn(2) == 0 {
					_ = s.Unsubscribe(topic, h.id)
				}
				s.RemoveHost(h.id)
				remMu.Lock()
				removed = append(removed, h)
				remMu.Unlock()
			}
		}(g)
	}

	// Publishers: count successful rounds only; failures during quorum
	// breakage are expected.
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := s.Publish(pylon.Event{Topic: topic}); err == nil {
					successful.Add(1)
				}
			}
		}()
	}

	waitFor(t, "2000 successful chaos publishes and 100 churned hosts", func() bool {
		remMu.Lock()
		churned := len(removed)
		remMu.Unlock()
		return successful.Load() >= 2000 && churned >= 100
	})
	stop.Store(true)
	wg.Wait()

	// Every successful publish delivered to the stable subscriber: it was
	// written to all replicas before any fault, so every replica view — and
	// therefore every cached member list — contains it.
	if got, want := stable.n.Load(), successful.Load(); got < want {
		t.Fatalf("stable subscriber saw %d of %d successful publishes (missed %d rounds)",
			got, want, want-got)
	}

	// Heal everything, then verify removed hosts are silent for publishes
	// that start after the in-flight rounds drained.
	for _, n := range nodes {
		n.SetOpHook(nil)
	}
	counts := make(map[string]int64, len(removed))
	for _, h := range removed {
		counts[h.id] = h.n.Load()
	}
	before := stable.n.Load()
	for i := 0; i < rng.Intn(10)+10; i++ {
		if _, err := s.Publish(pylon.Event{Topic: topic}); err != nil {
			t.Fatalf("post-heal publish: %v", err)
		}
	}
	if stable.n.Load() == before {
		t.Fatal("stable subscriber missed all post-heal publishes")
	}
	for _, h := range removed {
		if got := h.n.Load(); got != counts[h.id] {
			t.Fatalf("removed host %s delivered %d events after drain (seed %d)",
				h.id, got-counts[h.id], seed)
		}
	}
	t.Logf("seed %d: %d successful publishes, %d hosts churned, stable saw %d",
		seed, successful.Load(), len(removed), stable.n.Load())
}
