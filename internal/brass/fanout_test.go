package brass

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
)

// StreamsForTopic hands out the instance's own copy-on-write list: in open
// order, and a snapshot — streams opened, dropped or re-added while a caller
// ranges over it change what the next call returns, never what this range
// sees.
func TestStreamsForTopicIsASnapshot(t *testing.T) {
	h := NewHost(HostConfig{ID: "snap"}, nil, nil, nil)
	t.Cleanup(h.Close)
	h.RegisterApp(&echoApp{})
	inst, err := h.Instance("echo")
	if err != nil {
		t.Fatal(err)
	}
	names := map[*Stream]string{}
	stream := func(name string) *Stream {
		st := newStream(nil, inst)
		names[st] = name
		return st
	}
	a, b, c, d := stream("a"), stream("b"), stream("c"), stream("d")
	spell := func(sts []*Stream) (out []string) {
		for _, st := range sts {
			out = append(out, names[st])
		}
		return out
	}
	inst.call(func() {
		for _, st := range []*Stream{a, b, c, a} { // a twice: still one entry
			if err := st.AddTopic("/t"); err != nil {
				t.Error(err)
			}
		}
		var seen []*Stream
		for _, st := range inst.StreamsForTopic("/t") {
			seen = append(seen, st)
			if st == a {
				b.DropTopic("/t")    // dropped
				_ = d.AddTopic("/t") // opened
				_ = b.AddTopic("/t") // re-added
				c.DropTopic("/t")    // dropped before the range reaches it
			}
		}
		if got := spell(seen); !slices.Equal(got, []string{"a", "b", "c"}) {
			t.Errorf("the range saw %v, want [a b c]: the list it started on", got)
		}
		if got := spell(inst.StreamsForTopic("/t")); !slices.Equal(got, []string{"a", "d", "b"}) {
			t.Errorf("after the churn StreamsForTopic = %v, want [a d b]: open order, a re-add at the end", got)
		}
		for _, st := range []*Stream{a, b, d} {
			st.DropTopic("/t")
		}
		if got := inst.StreamsForTopic("/t"); got != nil {
			t.Errorf("after the last drop StreamsForTopic = %v, want nil", spell(got))
		}

		// A one-member list is its member's own array, the host's too. Handed
		// out, it stays as it was through a second add and its member's drop,
		// and a list that drops to one is the survivor's.
		if err := a.AddTopic("/one"); err != nil {
			t.Fatal(err)
		}
		one := inst.StreamsForTopic("/one")
		h.mu.Lock()
		hostOne := h.topicHostRefs["/one"]
		h.mu.Unlock()
		if &one[0] != &a.self[0] || len(hostOne) != 1 || &hostOne[0] != &inst.self[0] {
			t.Errorf("a one-member list is not its member's own array")
		}
		_ = b.AddTopic("/one")
		a.DropTopic("/one")
		if got := inst.StreamsForTopic("/one"); !slices.Equal(spell(got), []string{"b"}) || &got[0] != &b.self[0] {
			t.Errorf("after a second add and the first's drop StreamsForTopic = %v, want b's own [b]", spell(got))
		}
		survivor := inst.StreamsForTopic("/one")
		b.DropTopic("/one")
		if !slices.Equal(spell(one), []string{"a"}) || !slices.Equal(spell(survivor), []string{"b"}) {
			t.Errorf("handed-out one-member lists now read %v and %v, want [a] and [b]", spell(one), spell(survivor))
		}
		if got := inst.StreamsForTopic("/one"); got != nil {
			t.Errorf("after the last drop StreamsForTopic(/one) = %v, want nil", spell(got))
		}
	})
	if n := h.TopicRefs("/t"); n != 0 {
		t.Errorf("host still counts %d instances on the topic", n)
	}
}

// countApp counts the events its one instance is handed.
type countApp struct {
	name string
	n    atomic.Int64
}

type countInstance struct{ n *atomic.Int64 }

func (a *countApp) Name() string                      { return a.name }
func (a *countApp) NewInstance(*Runtime) AppInstance  { return countInstance{&a.n} }
func (c countInstance) OnStreamOpen(*Stream) error    { return nil }
func (c countInstance) OnStreamClose(*Stream, string) {}
func (c countInstance) OnEvent(pylon.Event)           { c.n.Add(1) }

// Three apps' instances on one topic share one Pylon registration: the
// second and third are deduplicated at the host. Then Host.Deliver ranges
// the topic's instance list outside h.mu while two instances subscribe and
// unsubscribe the same topic: the list it ranges is one no writer touches
// (-race says so), and an instance subscribed throughout is handed every
// event.
func TestDeliverRacesSubscribeChurn(t *testing.T) {
	nodes := []*kvstore.Node{kvstore.NewNode("a", "us")}
	pyl := pylon.MustNew(pylon.DefaultConfig(), kvstore.MustNewCluster(nodes, 1))
	h := NewHost(HostConfig{ID: "churn"}, pyl, nil, nil)
	t.Cleanup(h.Close)
	apps := make([]*countApp, 3) // [0] stays subscribed, the rest churn
	instances := make([]*Instance, len(apps))
	for i := range apps {
		apps[i] = &countApp{name: fmt.Sprintf("count-%d", i)}
		h.RegisterApp(apps[i])
		inst, err := h.Instance(apps[i].name)
		if err != nil {
			t.Fatal(err)
		}
		instances[i] = inst
	}
	for _, inst := range instances {
		if err := h.subscribeTopic("/t", inst); err != nil {
			t.Fatal(err)
		}
	}
	if subs, dedups := h.PylonSubs.Value(), h.PylonSubDedups.Value(); subs != 1 || dedups != 2 {
		t.Errorf("three instances on a topic: %d Pylon registrations and %d dedups, want 1 and 2", subs, dedups)
	}
	if got := pyl.Subscribers("/t"); len(got) != 1 {
		t.Errorf("Pylon lists %v on the topic, want the host once", got)
	}
	for _, inst := range instances[1:] {
		h.unsubscribeTopic("/t", inst)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, inst := range instances[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = h.subscribeTopic("/t", inst)
				h.unsubscribeTopic("/t", inst)
			}
		}()
	}
	const events = 2000
	for i := 0; i < events; i++ {
		h.Deliver(pylon.Event{Topic: "/t", ID: uint64(i)})
	}
	close(stop)
	wg.Wait()
	h.Quiesce()
	if got := apps[0].n.Load(); got != events {
		t.Errorf("the steadily subscribed instance was handed %d of %d events", got, events)
	}
	if n := h.TopicRefs("/t"); n != 1 {
		t.Errorf("%d instances on the topic after the churn, want 1", n)
	}
	if subs := h.PylonSubs.Value(); subs != 1 {
		t.Errorf("%d Pylon registrations after the churn, want 1", subs)
	}
}
