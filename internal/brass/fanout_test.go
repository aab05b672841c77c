package brass

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

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
	})
	if n := h.TopicRefs("/t"); n != 0 {
		t.Errorf("host still counts %d instances on the topic", n)
	}
}

// countApp counts, per instance, the events it is handed.
type countApp struct {
	mu   sync.Mutex
	seen []*atomic.Int64
}

type countInstance struct{ n *atomic.Int64 }

func (a *countApp) Name() string { return "count" }
func (a *countApp) NewInstance(*Runtime) AppInstance {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seen = append(a.seen, new(atomic.Int64))
	return countInstance{a.seen[len(a.seen)-1]}
}
func (c countInstance) OnStreamOpen(*Stream) error    { return nil }
func (c countInstance) OnStreamClose(*Stream, string) {}
func (c countInstance) OnEvent(pylon.Event)           { c.n.Add(1) }
func (c countInstance) OnAck(*Stream, uint64)         {}

// Host.Deliver ranges a topic's instance list outside h.mu while other
// instances subscribe and unsubscribe the same topic: the list it ranges is
// one no writer touches (-race says so), and an instance subscribed
// throughout is handed every event.
func TestDeliverRacesSubscribeChurn(t *testing.T) {
	h := NewHost(HostConfig{ID: "churn", PerStreamInstances: true}, nil, nil, nil)
	t.Cleanup(h.Close)
	app := &countApp{}
	h.RegisterApp(app)
	instances := make([]*Instance, 3) // [0] stays subscribed, the rest churn
	for i := range instances {
		inst, err := h.Instance("count")
		if err != nil {
			t.Fatal(err)
		}
		instances[i] = inst
	}
	if err := h.subscribeTopic("/t", instances[0]); err != nil {
		t.Fatal(err)
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
	if got := app.seen[0].Load(); got != events {
		t.Errorf("the steadily subscribed instance was handed %d of %d events", got, events)
	}
	if n := h.TopicRefs("/t"); n != 1 {
		t.Errorf("%d instances on the topic after the churn, want 1", n)
	}
}
