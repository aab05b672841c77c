package pylon

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"bladerunner/internal/kvstore"
)

type fakeHost struct {
	id string

	mu     sync.Mutex
	events []Event
}

func (h *fakeHost) ID() string { return h.id }

func (h *fakeHost) Deliver(ev Event) {
	h.mu.Lock()
	h.events = append(h.events, ev)
	h.mu.Unlock()
}

func (h *fakeHost) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.events)
}

func newKV(t *testing.T) *kvstore.Cluster {
	t.Helper()
	regions := []string{"us", "eu", "ap"}
	nodes := make([]*kvstore.Node, 6)
	for i := range nodes {
		nodes[i] = kvstore.NewNode(fmt.Sprintf("kv%d", i), regions[i%3])
	}
	return kvstore.MustNewCluster(nodes, 3)
}

func newService(t *testing.T) (*Service, *kvstore.Cluster) {
	t.Helper()
	kv := newKV(t)
	return MustNew(DefaultConfig(), kv), kv
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Error("nil kv accepted")
	}
}

func TestSubscribePublishDeliver(t *testing.T) {
	s, _ := newService(t)
	h1, h2 := &fakeHost{id: "host1"}, &fakeHost{id: "host2"}
	s.RegisterHost(h1)
	s.RegisterHost(h2)
	if err := s.Subscribe("/LVC/1", "host1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Subscribe("/LVC/1", "host2"); err != nil {
		t.Fatal(err)
	}
	n, err := s.Publish(Event{Topic: "/LVC/1", Ref: 42})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("fanout = %d, want 2", n)
	}
	if h1.count() != 1 || h2.count() != 1 {
		t.Errorf("deliveries: h1=%d h2=%d", h1.count(), h2.count())
	}
	h1.mu.Lock()
	ev := h1.events[0]
	h1.mu.Unlock()
	if ev.Ref != 42 || ev.ID == 0 {
		t.Errorf("event = %+v", ev)
	}
}

func TestPublishAssignsUniqueEventIDs(t *testing.T) {
	s, _ := newService(t)
	h := &fakeHost{id: "h"}
	s.RegisterHost(h)
	if err := s.Subscribe("/t", "h"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Publish(Event{Topic: "/t"}); err != nil {
			t.Fatal(err)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := map[uint64]bool{}
	for _, ev := range h.events {
		if seen[ev.ID] {
			t.Fatalf("duplicate event id %d", ev.ID)
		}
		seen[ev.ID] = true
	}
}

func TestTopicIsolation(t *testing.T) {
	s, _ := newService(t)
	h1, h2 := &fakeHost{id: "h1"}, &fakeHost{id: "h2"}
	s.RegisterHost(h1)
	s.RegisterHost(h2)
	_ = s.Subscribe("/a", "h1")
	_ = s.Subscribe("/b", "h2")
	if _, err := s.Publish(Event{Topic: "/a"}); err != nil {
		t.Fatal(err)
	}
	if h1.count() != 1 || h2.count() != 0 {
		t.Errorf("h1=%d h2=%d", h1.count(), h2.count())
	}
}

func TestSubscribeUnknownHost(t *testing.T) {
	s, _ := newService(t)
	if err := s.Subscribe("/t", "ghost"); !errors.Is(err, ErrUnknownSubscriber) {
		t.Errorf("err = %v", err)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	s, _ := newService(t)
	h := &fakeHost{id: "h"}
	s.RegisterHost(h)
	_ = s.Subscribe("/t", "h")
	if err := s.Unsubscribe("/t", "h"); err != nil {
		t.Fatal(err)
	}
	n, err := s.Publish(Event{Topic: "/t"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || h.count() != 0 {
		t.Errorf("n=%d count=%d after unsubscribe", n, h.count())
	}
	if s.DroppedNoSub.Value() != 1 {
		t.Errorf("DroppedNoSub = %d", s.DroppedNoSub.Value())
	}
}

func TestRemoveHostDropsAllSubscriptions(t *testing.T) {
	s, _ := newService(t)
	h := &fakeHost{id: "h"}
	s.RegisterHost(h)
	for i := 0; i < 5; i++ {
		if err := s.Subscribe(Topic(fmt.Sprintf("/t/%d", i)), "h"); err != nil {
			t.Fatal(err)
		}
	}
	s.RemoveHost("h")
	for i := 0; i < 5; i++ {
		if subs := s.Subscribers(Topic(fmt.Sprintf("/t/%d", i))); len(subs) != 0 {
			t.Errorf("topic %d still has subscribers %v", i, subs)
		}
	}
}

func TestSubscribeFailsWithoutQuorum(t *testing.T) {
	kv := newKV(t)
	s := MustNew(DefaultConfig(), kv)
	h := &fakeHost{id: "h"}
	s.RegisterHost(h)
	replicas := kv.ReplicasFor("/t")
	replicas[0].SetUp(false)
	replicas[1].SetUp(false)
	if err := s.Subscribe("/t", "h"); !errors.Is(err, ErrNoQuorum) {
		t.Errorf("err = %v", err)
	}
}

func TestFirstResponderWithStaleReplica(t *testing.T) {
	// The primary replica misses a subscriber that later replicas know;
	// Publish must still reach it via patch-forwarding, and repair the
	// primary.
	kv := newKV(t)
	s := MustNew(DefaultConfig(), kv)
	h1, h2 := &fakeHost{id: "h1"}, &fakeHost{id: "h2"}
	s.RegisterHost(h1)
	s.RegisterHost(h2)

	if err := s.Subscribe("/t", "h1"); err != nil {
		t.Fatal(err)
	}
	// Take the primary down; h2's subscription lands only on the others.
	replicas := kv.ReplicasFor("/t")
	replicas[0].SetUp(false)
	if err := s.Subscribe("/t", "h2"); err != nil {
		t.Fatal(err)
	}
	replicas[0].SetUp(true) // primary is back, but stale (missing h2)

	n, err := s.Publish(Event{Topic: "/t"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("fanout = %d, want 2 (stale primary patched-forward)", n)
	}
	if h2.count() != 1 {
		t.Error("h2 missed the event despite being subscribed")
	}
	if s.PatchForwards.Value() == 0 {
		t.Error("PatchForwards not counted")
	}
	if s.Patches.Value() == 0 {
		t.Error("no replica patched")
	}
	// After patching, the primary knows h2: a second publish needs no
	// patch-forward.
	before := s.PatchForwards.Value()
	if _, err := s.Publish(Event{Topic: "/t"}); err != nil {
		t.Fatal(err)
	}
	if s.PatchForwards.Value() != before {
		t.Error("patch did not converge the primary")
	}
}

func TestPublishAllReplicasDown(t *testing.T) {
	kv := newKV(t)
	s := MustNew(DefaultConfig(), kv)
	h := &fakeHost{id: "h"}
	s.RegisterHost(h)
	_ = s.Subscribe("/t", "h")
	for _, n := range kv.ReplicasFor("/t") {
		n.SetUp(false)
	}
	if _, err := s.Publish(Event{Topic: "/t"}); err == nil {
		t.Error("publish succeeded with all replicas down")
	}
}

func TestShardMappingStable(t *testing.T) {
	s, _ := newService(t)
	for _, topic := range []Topic{"/LVC/1", "/TI/5/9", "/Status/77"} {
		a, b := s.Shard(topic), s.Shard(topic)
		if a != b {
			t.Errorf("shard for %q unstable", topic)
		}
		if a < 0 || a >= shards {
			t.Errorf("shard %d out of range", a)
		}
	}
}

func TestShardSpread(t *testing.T) {
	s, _ := newService(t)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		seen[s.Shard(Topic(fmt.Sprintf("/LVC/%d", i)))] = true
	}
	if len(seen) < 800 {
		t.Errorf("1000 topics map to only %d shards", len(seen))
	}
}

func TestMetricsAccounting(t *testing.T) {
	s, _ := newService(t)
	h1, h2 := &fakeHost{id: "h1"}, &fakeHost{id: "h2"}
	s.RegisterHost(h1)
	s.RegisterHost(h2)
	_ = s.Subscribe("/t", "h1")
	_ = s.Subscribe("/t", "h2")
	_, _ = s.Publish(Event{Topic: "/t"})
	if s.Publishes.Value() != 1 {
		t.Errorf("Publishes = %d", s.Publishes.Value())
	}
	if s.Deliveries.Value() != 2 {
		t.Errorf("Deliveries = %d", s.Deliveries.Value())
	}
	if s.FanoutSize.Count() != 1 || s.FanoutSize.Mean() != 2 {
		t.Errorf("FanoutSize: count=%d mean=%v", s.FanoutSize.Count(), s.FanoutSize.Mean())
	}
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	s, _ := newService(t)
	hosts := make([]*fakeHost, 4)
	for i := range hosts {
		hosts[i] = &fakeHost{id: fmt.Sprintf("h%d", i)}
		s.RegisterHost(hosts[i])
	}
	var wg sync.WaitGroup
	for i := range hosts {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				topic := Topic(fmt.Sprintf("/t/%d", j%5))
				_ = s.Subscribe(topic, hosts[i].id)
				_, _ = s.Publish(Event{Topic: topic})
			}
		}()
	}
	wg.Wait()
	if s.Publishes.Value() != 200 {
		t.Errorf("Publishes = %d", s.Publishes.Value())
	}
}
