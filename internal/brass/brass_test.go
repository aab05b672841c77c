package brass

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// echoApp is a minimal application: it subscribes each stream to the topic
// named in the subscription header and forwards every event's Ref as the
// payload, filtering events whose Meta.On is set.
type echoApp struct {
	mu     sync.Mutex
	opened int
	closed int
}

func (a *echoApp) Name() string { return "echo" }

type echoInstance struct {
	app *echoApp
	rt  *Runtime
}

func (a *echoApp) NewInstance(rt *Runtime) AppInstance {
	return &echoInstance{app: a, rt: rt}
}

func (e *echoInstance) OnStreamOpen(st *Stream) error {
	topic := pylon.Topic(st.Header(burst.HdrTopic))
	if topic == "" {
		return fmt.Errorf("no topic")
	}
	e.app.mu.Lock()
	e.app.opened++
	e.app.mu.Unlock()
	return st.AddTopic(topic)
}

func (e *echoInstance) OnStreamClose(st *Stream, reason string) {
	e.app.mu.Lock()
	e.app.closed++
	e.app.mu.Unlock()
}

func (e *echoInstance) OnEvent(ev pylon.Event) {
	for _, st := range e.rt.Instance().StreamsForTopic(ev.Topic) {
		if ev.Meta.On {
			st.Filtered()
			continue
		}
		_ = st.Push(nil, cleared(ev.ID, ev.Trace, []byte(fmt.Sprintf("ref=%d", ev.Ref))))
	}
}

type testEnv struct {
	pylon *pylon.Service
	was   *was.Server
	host  *Host
	app   *echoApp
}

func newEnv(t *testing.T) *testEnv {
	t.Helper()
	nodes := []*kvstore.Node{
		kvstore.NewNode("a", "us"), kvstore.NewNode("b", "eu"), kvstore.NewNode("c", "ap"),
	}
	pyl := pylon.MustNew(pylon.DefaultConfig(), kvstore.MustNewCluster(nodes, 3))
	store := tao.MustNewStore(tao.DefaultConfig(), nil)
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 50, MeanFriends: 5, Seed: 1})
	w := was.New(store, graph, pyl, nil)
	app := &echoApp{}
	host := NewHost(HostConfig{ID: "brass-1", Region: "us"}, pyl, w, nil)
	host.RegisterApp(app)
	t.Cleanup(host.Close)
	return &testEnv{pylon: pyl, was: w, host: host, app: app}
}

// dialHost connects a BURST client to the host.
func dialHost(t *testing.T, env *testEnv) *burst.Client {
	t.Helper()
	a, b := net.Pipe()
	cli := burst.NewClient("device", a, nil)
	env.host.AcceptSession("host-side", b)
	t.Cleanup(func() { cli.Close() })
	return cli
}

func openStream(t *testing.T, cli *burst.Client, topic string) *burst.ClientStream {
	t.Helper()
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp:   "echo",
		burst.HdrTopic: topic,
		burst.HdrUser:  "7",
	}})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestServerlessSpoolUp(t *testing.T) {
	env := newEnv(t)
	if env.host.RunningInstances() != 0 {
		t.Fatal("instance running before any stream")
	}
	cli := dialHost(t, env)
	openStream(t, cli, "/t/1")
	waitFor(t, "instance spooled", func() bool { return env.host.RunningInstances() == 1 })
	if env.host.InstancesSpun.Value() != 1 {
		t.Errorf("InstancesSpun = %d", env.host.InstancesSpun.Value())
	}
	// Second stream reuses the instance.
	openStream(t, cli, "/t/2")
	waitFor(t, "second stream", func() bool {
		env.app.mu.Lock()
		defer env.app.mu.Unlock()
		return env.app.opened == 2
	})
	if env.host.RunningInstances() != 1 {
		t.Errorf("instances = %d, want 1", env.host.RunningInstances())
	}
}

func TestUnknownAppTerminatesStream(t *testing.T) {
	env := newEnv(t)
	cli := dialHost(t, env)
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrApp: "ghost"}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case batch := <-bursttest.Events(t, st):
		if batch.Deltas[0].Type != burst.DeltaTermination {
			t.Errorf("got %+v, want termination", batch.Deltas[0])
		}
		if !strings.Contains(batch.Deltas[0].Reason, "unknown application") {
			t.Errorf("reason = %q", batch.Deltas[0].Reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no termination for unknown app")
	}
}

// TestRefusedSubscribeNeverCloses sends a host, on one raw session, a
// subscribe it refuses, then that stream's cancel, a second refused subscribe
// left open, and a subscribe it serves; then the session closes. A refused
// subscribe was decoded into a Stream with no instance, so neither its cancel
// nor the session's close may reach closeStream: the app sees only the
// served stream open and close.
func TestRefusedSubscribeNeverCloses(t *testing.T) {
	served := burst.Header{burst.HdrApp: "echo", burst.HdrTopic: "/t/served", burst.HdrUser: "7"}
	for _, c := range []struct {
		name   string
		header burst.Header
	}{
		{"user 0", burst.Header{burst.HdrApp: "echo", burst.HdrTopic: "/t/refused", burst.HdrUser: "0"}},
		{"user abc", burst.Header{burst.HdrApp: "echo", burst.HdrTopic: "/t/refused", burst.HdrUser: "abc"}},
		{"unknown app", burst.Header{burst.HdrApp: "ghost", burst.HdrTopic: "/t/refused", burst.HdrUser: "7"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := newEnv(t)
			a, b := net.Pipe()
			terminated := make(chan burst.StreamID, 8)
			dev := burst.NewSession("device", a, burst.HandlerFuncs{OnFrame: func(f burst.Frame) {
				if f.Type != burst.FrameBatch {
					return
				}
				batch, err := burst.DecodeBatch(f.Payload)
				if err != nil {
					t.Errorf("stream %d: %v", f.SID, err)
					return
				}
				for _, d := range batch.Deltas {
					if d.Type == burst.DeltaTermination {
						terminated <- f.SID
					}
				}
			}})
			defer dev.Close()
			env.host.AcceptSession("host-side", b)
			for _, m := range []struct {
				t   burst.FrameType
				sid burst.StreamID
				v   any
			}{
				{burst.FrameSubscribe, 1, burst.Subscribe{Header: c.header}},
				{burst.FrameCancel, 1, burst.Cancel{Reason: "scrolled"}},
				{burst.FrameSubscribe, 3, burst.Subscribe{Header: c.header}},
				{burst.FrameSubscribe, 5, burst.Subscribe{Header: served}},
			} {
				if err := dev.SendMsg(m.t, m.sid, m.v); err != nil {
					t.Fatal(err)
				}
			}
			for range 2 {
				select {
				case sid := <-terminated:
					if sid != 1 && sid != 3 {
						t.Errorf("stream %d terminated; only 1 and 3 were refused", sid)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a refused subscribe was never terminated")
				}
			}
			waitFor(t, "the served stream open", func() bool { return env.host.StreamsOpened.Value() == 1 })
			_ = dev.Close()
			waitFor(t, "the served stream closed", func() bool { return env.host.StreamsClosed.Value() == 1 })
			env.host.Quiesce()
			env.app.mu.Lock()
			opened, closed := env.app.opened, env.app.closed
			env.app.mu.Unlock()
			if opened != 1 || closed != 1 {
				t.Errorf("the app saw %d opens and %d closes, want 1 and 1: only the served stream", opened, closed)
			}
			if o, cl := env.host.StreamsOpened.Value(), env.host.StreamsClosed.Value(); o != cl {
				t.Errorf("StreamsOpened %d, StreamsClosed %d", o, cl)
			}
		})
	}
}

func TestEventDeliveryThroughPylon(t *testing.T) {
	env := newEnv(t)
	cli := dialHost(t, env)
	st := openStream(t, cli, "/t/1")
	waitFor(t, "pylon subscription", func() bool {
		return len(env.pylon.Subscribers("/t/1")) == 1
	})
	if _, err := env.pylon.Publish(pylon.Event{Topic: "/t/1", Ref: 99}); err != nil {
		t.Fatal(err)
	}
	select {
	case batch := <-bursttest.Events(t, st):
		if string(batch.Deltas[0].Payload) != "ref=99" {
			t.Errorf("payload = %q", batch.Deltas[0].Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event never reached device")
	}
	env.host.Quiesce()
	if env.host.Deliveries.Value() != 1 || env.host.Decisions.Value() != 1 {
		t.Errorf("deliveries=%d decisions=%d", env.host.Deliveries.Value(), env.host.Decisions.Value())
	}
}

func TestFilteringCountsDecisionsNotDeliveries(t *testing.T) {
	env := newEnv(t)
	cli := dialHost(t, env)
	openStream(t, cli, "/t/1")
	waitFor(t, "subscription", func() bool { return len(env.pylon.Subscribers("/t/1")) == 1 })
	if _, err := env.pylon.Publish(pylon.Event{Topic: "/t/1", Meta: pylon.Meta{On: true}}); err != nil {
		t.Fatal(err)
	}
	env.host.Quiesce()
	if env.host.Decisions.Value() != 1 || env.host.Deliveries.Value() != 0 || env.host.Filtered.Value() != 1 {
		t.Errorf("decisions=%d deliveries=%d filtered=%d",
			env.host.Decisions.Value(), env.host.Deliveries.Value(), env.host.Filtered.Value())
	}
	if got := env.host.FilterRate(); got != 1.0 {
		t.Errorf("FilterRate = %v", got)
	}
}

func TestSubscriptionManagerDedupsPylonRegistrations(t *testing.T) {
	env := newEnv(t)
	cli := dialHost(t, env)
	openStream(t, cli, "/t/1")
	openStream(t, cli, "/t/1") // same topic, second stream
	waitFor(t, "both streams", func() bool {
		env.app.mu.Lock()
		defer env.app.mu.Unlock()
		return env.app.opened == 2
	})
	env.host.Quiesce()
	if subs := env.pylon.Subscribers("/t/1"); len(subs) != 1 {
		t.Errorf("pylon subscribers = %v, want exactly the host once", subs)
	}
	if env.host.PylonSubs.Value() != 1 {
		t.Errorf("PylonSubs = %d, want 1 (deduped)", env.host.PylonSubs.Value())
	}
	// Publishing reaches both streams via one host delivery.
	before := env.host.Decisions.Value()
	if _, err := env.pylon.Publish(pylon.Event{Topic: "/t/1"}); err != nil {
		t.Fatal(err)
	}
	env.host.Quiesce()
	if got := env.host.Decisions.Value() - before; got != 2 {
		t.Errorf("decisions for 2 streams = %d", got)
	}
}

func TestLastStreamDropUnsubscribesFromPylon(t *testing.T) {
	env := newEnv(t)
	cli := dialHost(t, env)
	st1 := openStream(t, cli, "/t/1")
	st2 := openStream(t, cli, "/t/1")
	waitFor(t, "streams", func() bool {
		env.app.mu.Lock()
		defer env.app.mu.Unlock()
		return env.app.opened == 2
	})
	_ = st1.Cancel("done")
	waitFor(t, "first close", func() bool {
		env.app.mu.Lock()
		defer env.app.mu.Unlock()
		return env.app.closed == 1
	})
	if subs := env.pylon.Subscribers("/t/1"); len(subs) != 1 {
		t.Error("host unsubscribed while a stream remains")
	}
	_ = st2.Cancel("done")
	waitFor(t, "pylon unsubscribed", func() bool {
		return len(env.pylon.Subscribers("/t/1")) == 0
	})
}

func TestStickyRoutingRewriteOnOpen(t *testing.T) {
	env := newEnv(t)
	cli := dialHost(t, env)
	st := openStream(t, cli, "/t/1")
	waitFor(t, "sticky header", func() bool {
		return st.Request().Header[burst.HdrStickyBRASS] == "brass-1"
	})
}

func TestSessionFailureClosesStreamsAndUnsubscribes(t *testing.T) {
	env := newEnv(t)
	a, b := net.Pipe()
	cli := burst.NewClient("device", a, nil)
	env.host.AcceptSession("host-side", b)
	_, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp: "echo", burst.HdrTopic: "/t/9", burst.HdrUser: "3",
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription", func() bool { return len(env.pylon.Subscribers("/t/9")) == 1 })
	cli.Close() // device vanishes
	waitFor(t, "close + pylon unsubscribe", func() bool {
		env.app.mu.Lock()
		closed := env.app.closed
		env.app.mu.Unlock()
		return closed == 1 && len(env.pylon.Subscribers("/t/9")) == 0
	})
}

func TestHostCloseRemovesPylonRegistration(t *testing.T) {
	env := newEnv(t)
	cli := dialHost(t, env)
	openStream(t, cli, "/t/1")
	waitFor(t, "subscription", func() bool { return len(env.pylon.Subscribers("/t/1")) == 1 })
	env.host.Close()
	if subs := env.pylon.Subscribers("/t/1"); len(subs) != 0 {
		t.Errorf("subscribers after host close: %v", subs)
	}
}

func TestRateLimiter(t *testing.T) {
	r := RateLimiter{Interval: time.Second}
	t1 := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	if !r.Allow(t1) {
		t.Fatal("first Allow denied")
	}
	if r.Allow(t1.Add(500 * time.Millisecond)) {
		t.Error("allowed within interval")
	}
	if !r.Allow(t1.Add(time.Second)) {
		t.Error("denied at interval boundary")
	}
	if r.Allow(t1.Add(2*time.Second - time.Nanosecond)) {
		t.Error("allowed within the interval after the last delivery")
	}
	if !r.Allow(t1.Add(2 * time.Second)) {
		t.Error("denied one interval after the last delivery")
	}
	// Zero interval always allows.
	r0 := RateLimiter{}
	if !r0.Allow(t1) || !r0.Allow(t1) {
		t.Error("zero-interval limiter denied")
	}
}

func TestRateLimiterHeaderRoundTrip(t *testing.T) {
	r := RateLimiter{Interval: 2 * time.Second}
	t1 := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	r.Allow(t1)
	state := r.HeaderState()
	r2 := RateLimiter{Interval: 2 * time.Second}
	r2.RestoreHeaderState(state, t1)
	if r2.Allow(t1.Add(time.Second)) {
		t.Error("restored limiter forgot its last delivery")
	}
	if !r2.Allow(t1.Add(2 * time.Second)) {
		t.Error("restored limiter over-restrictive")
	}
	// Garbage state is ignored.
	r3 := RateLimiter{Interval: time.Second}
	r3.RestoreHeaderState("garbage", t1)
	if !r3.Allow(t1) {
		t.Error("garbage state blocked limiter")
	}
}

// TestRateLimiterRestoreClampsFutureHeader is the regression test for the
// stream-stall bug: a failed BRASS could persist a `last` timestamp far in
// the future (skewed clock, corrupt header), and the replacement host
// restored it verbatim — silencing the stream until that wall time.
// Restore must clamp to now so the next delivery is at most one Interval
// away.
func TestRateLimiterRestoreClampsFutureHeader(t *testing.T) {
	t1 := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	skewed := RateLimiter{Interval: 2 * time.Second}
	skewed.Allow(t1.Add(365 * 24 * time.Hour)) // "last delivery" a year ahead
	header := skewed.HeaderState()

	r := RateLimiter{Interval: 2 * time.Second}
	r.RestoreHeaderState(header, t1)
	if r.Allow(t1.Add(time.Second)) {
		t.Error("clamped restore must still enforce the interval from now")
	}
	if !r.Allow(t1.Add(2 * time.Second)) {
		t.Error("stream stalled: future-dated header state was not clamped to now")
	}
}

// TestRateLimiterClockRetreat is the regression test for the second stall
// mode: after a restore (or a virtual-clock reset) `now` can precede the
// stored `last`. With a large Interval the old code returned false until
// the original timeline caught up — effectively forever.
func TestRateLimiterClockRetreat(t *testing.T) {
	t1 := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	r := RateLimiter{Interval: time.Hour}
	if !r.Allow(t1) {
		t.Fatal("first Allow denied")
	}
	// The clock retreats two days: far more than one Interval back.
	back := t1.Add(-48 * time.Hour)
	if !r.Allow(back) {
		t.Error("limiter stalled after clock retreat beyond one Interval")
	}
	// Within one Interval of the (re-anchored) last, normal pacing holds.
	if r.Allow(back.Add(30 * time.Minute)) {
		t.Error("re-anchored limiter must still pace deliveries")
	}
	if !r.Allow(back.Add(time.Hour)) {
		t.Error("re-anchored limiter denied at interval boundary")
	}
}

func TestRankedBuffer(t *testing.T) {
	t1 := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	b := RankedBuffer{K: 3, TTL: 10 * time.Second}
	for i, score := range []float64{0.5, 0.9, 0.1, 0.7, 0.3} {
		b.Add(RankedItem{Score: score, Time: t1, Seq: uint64(i)})
	}
	if len(b.items) != 3 {
		t.Errorf("Len = %d, want K=3", len(b.items))
	}
	item, ok := b.Pop(t1.Add(time.Second))
	if !ok || item.Score != 0.9 {
		t.Errorf("top = %+v ok=%v", item, ok)
	}
	item, _ = b.Pop(t1.Add(time.Second))
	if item.Score != 0.7 {
		t.Errorf("second = %+v", item)
	}
	// Stale items are discarded at Pop.
	b2 := RankedBuffer{K: 3, TTL: 10 * time.Second}
	b2.Add(RankedItem{Score: 0.9, Time: t1})
	b2.Add(RankedItem{Score: 0.5, Time: t1.Add(15 * time.Second)})
	item, ok = b2.Pop(t1.Add(20 * time.Second))
	if !ok || item.Score != 0.5 {
		t.Errorf("stale skip: %+v ok=%v", item, ok)
	}
	// Expire without popping.
	b3 := RankedBuffer{K: 5, TTL: time.Second}
	b3.Add(RankedItem{Score: 0.4, Time: t1})
	b3.Expire(t1.Add(2 * time.Second))
	if len(b3.items) != 0 {
		t.Errorf("Expire left %d items", len(b3.items))
	}
}

func TestRankedBufferUnlimited(t *testing.T) {
	b := RankedBuffer{} // K=0: unbounded, TTL=0: never stale
	t1 := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		b.Add(RankedItem{Score: float64(i), Time: t1})
	}
	if len(b.items) != 100 {
		t.Errorf("Len = %d", len(b.items))
	}
	item, ok := b.Pop(t1.Add(time.Hour))
	if !ok || item.Score != 99 {
		t.Errorf("Pop = %+v", item)
	}
}

// surfaceApp exercises the full Stream/Runtime API from inside the loop.
type surfaceApp struct {
	mu     sync.Mutex
	probes map[string]string
}

func (a *surfaceApp) Name() string { return "surface" }

func (a *surfaceApp) NewInstance(rt *Runtime) AppInstance {
	return &surfaceInstance{app: a, rt: rt}
}

type surfaceInstance struct {
	app *surfaceApp
	rt  *Runtime
}

func (s *surfaceInstance) set(k, v string) {
	s.app.mu.Lock()
	s.app.probes[k] = v
	s.app.mu.Unlock()
}

func (s *surfaceInstance) OnStreamOpen(st *Stream) error {
	if !s.rt.Now().IsZero() {
		s.set("now", "ok")
	}
	if err := st.AddTopic("/surf/a"); err != nil {
		return err
	}
	if err := st.AddTopic("/surf/b"); err != nil {
		return err
	}
	st.inst.dropTopicRef("/surf/b", st)
	s.set("reqApp", st.Header(burst.HdrApp))
	_ = st.Rewrite(nil, []byte("surface-body"))
	// Runtime timer fires on the loop.
	s.rt.After(time.Millisecond, func() { s.set("timer", "fired") })
	// Streams() enumerates the open stream.
	s.set("streams", fmt.Sprint(len(s.rt.Instance().Streams())))
	return nil
}

func (s *surfaceInstance) OnStreamClose(st *Stream, reason string) {}

func (s *surfaceInstance) OnEvent(ev pylon.Event) {
	for _, st := range s.rt.Instance().StreamsForTopic(ev.Topic) {
		if ev.Meta.On {
			_ = st.Rewrite(burst.Header{burst.HdrStickyBRASS: "brass-elsewhere"}, nil)
			reason := "redirect to brass-elsewhere"
			_ = st.burst.Terminate(reason)
			st.inst.closeStream(st, reason)
			continue
		}
		if p, ok := st.Fetch(ev, ev.ID); ok {
			_ = st.Push(nil, p)
		}
	}
}

func TestStreamSurfaceAPI(t *testing.T) {
	env := newEnv(t)
	app := &surfaceApp{probes: map[string]string{}}
	env.host.RegisterApp(app)
	env.was.RegisterPayload("surface", func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) ([]byte, error) {
		return json.Marshal(fmt.Sprintf("payload-%d", ev.Ref))
	})

	cli := dialHost(t, env)
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp: "surface", burst.HdrUser: "4",
	}})
	if err != nil {
		t.Fatal(err)
	}
	probe := func(k string) string {
		app.mu.Lock()
		defer app.mu.Unlock()
		return app.probes[k]
	}
	waitFor(t, "probes", func() bool { return probe("timer") == "fired" })
	if probe("reqApp") != "surface" || probe("streams") != "1" || probe("now") != "ok" {
		t.Errorf("reqApp=%q streams=%q now=%q", probe("reqApp"), probe("streams"), probe("now"))
	}
	// Dropping the topic removed the host's Pylon registration for /surf/b.
	waitFor(t, "topic b unsubscribed", func() bool {
		return len(env.pylon.Subscribers("/surf/b")) == 0 &&
			len(env.pylon.Subscribers("/surf/a")) == 1
	})
	// Body rewrite reached the client's stored request.
	waitFor(t, "body rewrite", func() bool { return string(st.Request().Body) == "surface-body" })

	// Fetch + push.
	ev := bursttest.Events(t, st)
	if _, err := env.pylon.Publish(pylon.Event{Topic: "/surf/a", Ref: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case batch := <-ev:
		if string(batch.Deltas[0].Payload) != `"payload-1"` {
			t.Errorf("payload = %s", batch.Deltas[0].Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no payload push")
	}

	// Redirect (an event with Meta.On): rewrite sticky target + terminate.
	if _, err := env.pylon.Publish(pylon.Event{Topic: "/surf/a", Meta: pylon.Meta{On: true}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case batch, ok := <-ev:
			if !ok {
				// Stream ended after redirect; stored request points at
				// the new BRASS.
				if got := st.Request().Header[burst.HdrStickyBRASS]; got != "brass-elsewhere" {
					t.Errorf("sticky after redirect = %q", got)
				}
				return
			}
			for _, d := range batch.Deltas {
				if d.Type == burst.DeltaTermination && !strings.Contains(d.Reason, "redirect") {
					t.Errorf("termination reason = %q", d.Reason)
				}
			}
		case <-deadline:
			t.Fatal("redirect never terminated the stream")
		}
	}
}
