package brass

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/overload"
	"bladerunner/internal/pylon"
)

// gateApp blocks its event loop inside OnEvent until released, letting
// tests saturate an instance's bounded task queue deterministically.
type gateApp struct {
	gate chan struct{}
	once sync.Once

	mu      sync.Mutex
	entered int
	events  int
	acks    []uint64
}

// release opens the gate exactly once (also used as a cleanup so a failed
// assertion cannot leave host.Close joining a forever-blocked loop).
func (a *gateApp) release() { a.once.Do(func() { close(a.gate) }) }

func (a *gateApp) Name() string { return "gate" }

type gateInstance struct {
	app *gateApp
	rt  *Runtime
}

func (a *gateApp) NewInstance(rt *Runtime) AppInstance {
	return &gateInstance{app: a, rt: rt}
}

func (g *gateInstance) OnStreamOpen(st *Stream) error {
	return st.AddTopic(pylon.Topic(st.Header(burst.HdrTopic)))
}

func (g *gateInstance) OnStreamClose(st *Stream, reason string) {}

func (g *gateInstance) OnEvent(ev pylon.Event) {
	g.app.mu.Lock()
	g.app.entered++
	g.app.mu.Unlock()
	<-g.app.gate
	g.app.mu.Lock()
	g.app.events++
	g.app.mu.Unlock()
}

func (g *gateInstance) OnAck(st *Stream, seq uint64) {
	g.app.mu.Lock()
	g.app.acks = append(g.app.acks, seq)
	g.app.mu.Unlock()
}

func (a *gateApp) enteredCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.entered
}

func (a *gateApp) eventCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.events
}

func (a *gateApp) ackCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.acks)
}

// collect drains a client stream's events in the background, recording
// flow deltas in arrival order.
type flowCollector struct {
	mu    sync.Mutex
	flows []burst.Delta
}

func (c *flowCollector) run(cs *burst.ClientStream) {
	for batch, ok := cs.Next(); ok; batch, ok = cs.Next() {
		for _, d := range batch.Deltas {
			if d.Type == burst.DeltaFlowStatus {
				c.mu.Lock()
				c.flows = append(c.flows, d)
				c.mu.Unlock()
			}
		}
	}
}

func (c *flowCollector) snapshot() []burst.Delta {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]burst.Delta(nil), c.flows...)
}

// A saturated instance loop sheds its oldest Data-class delivery, signals
// FlowDegraded with a shed marker to every stream, never sheds
// Control-class work (a stream open, a stream close, acks), and signals
// FlowRecovered once drained.
func TestLoopSaturationShedsDataSignalsFlow(t *testing.T) {
	app := &gateApp{gate: make(chan struct{})}
	host := NewHost(HostConfig{ID: "brass-ovl", Region: "us", LoopQueueDepth: 2},
		nil, nil, nil)
	host.RegisterApp(app)
	t.Cleanup(host.Close)
	t.Cleanup(app.release) // runs before host.Close: never join a blocked loop

	a, b := net.Pipe()
	cli := burst.NewClient("device", a, nil)
	host.AcceptSession("host-side", b)
	t.Cleanup(func() { cli.Close() })
	header := burst.Header{
		burst.HdrApp:   "gate",
		burst.HdrTopic: "/t",
		burst.HdrUser:  "7",
	}
	cs, err := cli.Subscribe(burst.Subscribe{Header: header})
	if err != nil {
		t.Fatal(err)
	}
	col := &flowCollector{}
	go col.run(cs)
	waitFor(t, "stream open", func() bool { return host.StreamsOpened.Value() == 1 })
	inst, err := host.Instance("gate")
	if err != nil {
		t.Fatal(err)
	}

	// The first delivery blocks the loop inside OnEvent; the rest fill the
	// queue's Data bound (depth 2) behind it, and each one past the bound
	// sheds the oldest queued delivery.
	const deliveries = 10
	host.Deliver(pylon.Event{ID: 1, Topic: "/t"})
	waitFor(t, "loop blocked", func() bool { return app.enteredCount() == 1 })
	for i := 1; i < deliveries; i++ {
		host.Deliver(pylon.Event{ID: uint64(i + 1), Topic: "/t"})
	}
	if got := inst.tasks.Len(); got != 2 {
		t.Fatalf("queue holds %d tasks, want its Data bound of 2", got)
	}
	if got := host.LoopOverflows.Value(); got != deliveries-3 {
		t.Fatalf("LoopOverflows = %d, want %d", got, deliveries-3)
	}
	waitFor(t, "degraded signal", func() bool {
		for _, d := range col.snapshot() {
			if d.Flow == burst.FlowDegraded && overload.IsShedMarker(d.FlowDetail) {
				return true
			}
		}
		return false
	})

	// A stream open and a stream close posted while shedding must survive.
	// They are Control pushes straight from the session handlers
	// (openStream, closeStream), not posts: open a second stream and cancel
	// the first. With the Data bound full, each displaces one queued
	// delivery (Control makes room by shedding Data, never the reverse).
	opened, closed := host.StreamsOpened.Value(), host.StreamsClosed.Value()
	cs2, err := cli.Subscribe(burst.Subscribe{Header: header})
	if err != nil {
		t.Fatal(err)
	}
	col2 := &flowCollector{}
	go col2.run(cs2)
	if err := cs.Cancel("scrolled away"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "open and close enqueued as control", func() bool {
		return inst.tasks.Len() == 2 && host.LoopOverflows.Value() == deliveries-1
	})

	// Acks are Control too: with no queued delivery left to displace, every
	// ack exceeds the bound — and must still land.
	for i := 0; i < 5; i++ {
		if err := cs2.Ack(uint64(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "acks enqueued as control", func() bool { return inst.tasks.Len() == 7 })

	app.release() // release the loop
	waitFor(t, "acks processed", func() bool { return app.ackCount() == 5 })
	waitFor(t, "stream opened and closed", func() bool {
		return host.StreamsOpened.Value() == opened+1 && host.StreamsClosed.Value() == closed+1
	})
	waitFor(t, "recovered signal", func() bool {
		for _, d := range col2.snapshot() {
			if d.Flow == burst.FlowRecovered &&
				strings.HasPrefix(d.FlowDetail, overload.RecoveredMarkerPrefix) {
				return true
			}
		}
		return false
	})
	// Conservation: every delivery was either processed or counted shed, so
	// every shed was a delivery.
	waitFor(t, "deliveries drain", func() bool {
		return app.eventCount()+int(host.LoopOverflows.Value()) == deliveries
	})
	if got := app.eventCount(); got != 1 {
		t.Errorf("events processed = %d, want 1 (every queued delivery was displaced)", got)
	}
}

// captureApp records the server-side Stream so tests can Push directly.
type captureApp struct {
	mu sync.Mutex
	st *Stream
}

func (a *captureApp) Name() string { return "cap" }

type captureInstance struct{ app *captureApp }

func (a *captureApp) NewInstance(rt *Runtime) AppInstance { return &captureInstance{app: a} }

func (c *captureInstance) OnStreamOpen(st *Stream) error {
	c.app.mu.Lock()
	c.app.st = st
	c.app.mu.Unlock()
	return nil
}
func (c *captureInstance) OnStreamClose(st *Stream, reason string) {}
func (c *captureInstance) OnEvent(ev pylon.Event)                  {}
func (c *captureInstance) OnAck(st *Stream, seq uint64)            {}

func (a *captureApp) stream() *Stream {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.st
}

func newStreamAdmissionHost(t *testing.T, app Application) *Host {
	t.Helper()
	host := NewHost(HostConfig{
		ID:     "brass-sa",
		Region: "us",
		// One token, refilled every 200ms: the first Push is admitted,
		// an immediate second Push sheds.
		StreamDeliverRate:  5,
		StreamDeliverBurst: 1,
	}, nil, nil, nil)
	host.RegisterApp(app)
	t.Cleanup(host.Close)
	return host
}

type recordedBatches struct {
	mu      sync.Mutex
	batches [][]burst.Delta
}

func (r *recordedBatches) run(cs *burst.ClientStream) {
	for batch, ok := cs.Next(); ok; batch, ok = cs.Next() {
		r.mu.Lock()
		r.batches = append(r.batches, batch.Deltas)
		r.mu.Unlock()
	}
}

func (r *recordedBatches) deltas() []burst.Delta {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []burst.Delta
	for _, b := range r.batches {
		out = append(out, b...)
	}
	return out
}

// Per-stream delivery admission: over-rate payload batches shed (control
// passes), exactly one FlowDegraded with a shed marker marks the episode,
// the bucket state is persisted to the stream header, and the first
// admitted batch afterwards emits FlowRecovered before its payload.
func TestStreamAdmissionShedsPayloadsKeepsControl(t *testing.T) {
	app := &captureApp{}
	host := newStreamAdmissionHost(t, app)

	a, b := net.Pipe()
	cli := burst.NewClient("device", a, nil)
	host.AcceptSession("host-side", b)
	t.Cleanup(func() { cli.Close() })
	cs, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp:  "cap",
		burst.HdrUser: "7",
	}})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordedBatches{}
	go rec.run(cs)
	waitFor(t, "stream captured", func() bool { return app.stream() != nil })
	st := app.stream()

	if err := st.Push(burst.PayloadDelta(1, []byte("p1"))); err != nil {
		t.Fatal(err) // bucket starts full: admitted
	}
	// Immediate second push: no token. Payload sheds; the batch's control
	// delta still goes through.
	if err := st.Push(
		burst.PayloadDelta(2, []byte("p2")),
		burst.FlowStatusDelta(burst.FlowRerouted, "moving"),
	); err != nil {
		t.Fatal(err)
	}
	if got := host.StreamSheds.Value(); got != 1 {
		t.Errorf("StreamSheds = %d, want 1", got)
	}
	if got := host.Deliveries.Value(); got != 1 {
		t.Errorf("Deliveries = %d, want 1 (shed payloads must not count)", got)
	}

	// Refill one token and push again: FlowRecovered precedes the payload.
	time.Sleep(400 * time.Millisecond)
	if err := st.Push(burst.PayloadDelta(3, []byte("p3"))); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "all deltas arrive", func() bool {
		var seqs []uint64
		for _, d := range rec.deltas() {
			if d.Type == burst.DeltaPayload {
				seqs = append(seqs, d.Seq)
			}
		}
		return len(seqs) == 2 && seqs[0] == 1 && seqs[1] == 3
	})
	var kinds []string
	for _, d := range rec.deltas() {
		switch {
		case d.Type == burst.DeltaPayload:
			kinds = append(kinds, "payload")
		case d.Flow == burst.FlowDegraded && overload.IsShedMarker(d.FlowDetail):
			kinds = append(kinds, "degraded-shed")
		case d.Flow == burst.FlowRerouted:
			kinds = append(kinds, "rerouted")
		case d.Flow == burst.FlowRecovered:
			kinds = append(kinds, "recovered")
		}
	}
	want := []string{"payload", "degraded-shed", "rerouted", "recovered", "payload"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("delta order = %v, want %v", kinds, want)
	}
	// The client's stored request carries the persisted bucket state.
	if cs.Request().Header[HdrAdmissionState] == "" {
		t.Error("admission state was not rewritten into the stream header")
	}
	if got := host.FlowSignals.Value(); got != 2 {
		t.Errorf("FlowSignals = %d, want 2", got)
	}
}

// The persisted admission state follows the stream through failover: a
// replacement stream subscribed with the rewritten header starts from the
// drained bucket instead of granting a fresh burst.
func TestStreamAdmissionStateSurvivesFailover(t *testing.T) {
	app := &captureApp{}
	// Very slow refill (one token per 2s) so the failover comfortably
	// lands inside the drained window.
	host := NewHost(HostConfig{
		ID:                 "brass-fo",
		Region:             "us",
		StreamDeliverRate:  0.5,
		StreamDeliverBurst: 1,
	}, nil, nil, nil)
	host.RegisterApp(app)
	t.Cleanup(host.Close)

	a, b := net.Pipe()
	cli := burst.NewClient("device", a, nil)
	host.AcceptSession("host-side", b)
	cs, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp:  "cap",
		burst.HdrUser: "7",
	}})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, ok := cs.Next(); ok; _, ok = cs.Next() {
		}
	}()
	waitFor(t, "stream captured", func() bool { return app.stream() != nil })
	st := app.stream()

	// Drain the bucket and shed once so the state is persisted.
	_ = st.Push(burst.PayloadDelta(1, []byte("p1")))
	_ = st.Push(burst.PayloadDelta(2, []byte("p2")))
	waitFor(t, "shed recorded", func() bool { return host.StreamSheds.Value() == 1 })
	// The shed is counted before its rewrite is sent: wait for the header,
	// not the counter.
	waitFor(t, "admission state persisted", func() bool { return cs.HeaderField(HdrAdmissionState) != "" })
	req := cs.Request()
	_ = cli.Close()

	// "Failover": a new session resubscribes with the stored request, as
	// the device recovery path does.
	app.mu.Lock()
	app.st = nil
	app.mu.Unlock()
	a2, b2 := net.Pipe()
	cli2 := burst.NewClient("device-2", a2, nil)
	host.AcceptSession("host-side-2", b2)
	t.Cleanup(func() { cli2.Close() })
	cs2, err := cli2.Subscribe(req)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, ok := cs2.Next(); ok; _, ok = cs2.Next() {
		}
	}()
	waitFor(t, "replacement captured", func() bool { return app.stream() != nil })
	st2 := app.stream()

	// A fresh stream would admit immediately (full bucket); the restored
	// one is still drained, so the first push sheds.
	if err := st2.Push(burst.PayloadDelta(3, []byte("p3"))); err != nil {
		t.Fatal(err)
	}
	if got := host.StreamSheds.Value(); got != 2 {
		t.Errorf("StreamSheds = %d, want 2 (restored bucket must stay drained)", got)
	}
}

// Host-level delivery admission sheds whole events before any instance
// work, counting decisions on the controller.
func TestHostDeliverAdmission(t *testing.T) {
	app := &gateApp{gate: make(chan struct{})}
	app.release() // never block
	host := NewHost(HostConfig{
		ID:           "brass-ha",
		Region:       "us",
		DeliverRate:  1,
		DeliverBurst: 4,
	}, nil, nil, nil)
	host.RegisterApp(app)
	t.Cleanup(host.Close)

	a, b := net.Pipe()
	cli := burst.NewClient("device", a, nil)
	host.AcceptSession("host-side", b)
	t.Cleanup(func() { cli.Close() })
	if _, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp:   "gate",
		burst.HdrTopic: "/t",
		burst.HdrUser:  "7",
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream open", func() bool { return host.StreamsOpened.Value() == 1 })

	for i := 0; i < 50; i++ {
		host.Deliver(pylon.Event{ID: uint64(i + 1), Topic: "/t"})
	}
	admitted := host.Admit.Admitted.Value()
	shed := host.Admit.Shed.Value()
	if admitted+shed != 50 {
		t.Errorf("admitted+shed = %d, want 50", admitted+shed)
	}
	// Seeded fill ∈ [2, 4] tokens; real-clock refill over the loop adds
	// at most a fraction more.
	if admitted < 2 || admitted > 6 {
		t.Errorf("admitted = %d, want a small burst", admitted)
	}
	waitFor(t, "admitted events processed", func() bool {
		return app.eventCount() == int(admitted)
	})
}
