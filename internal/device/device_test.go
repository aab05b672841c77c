package device

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/edge"
	"bladerunner/internal/faults"
	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

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

// fakePOP is a scripted BURST endpoint registered as a POP target.
type fakePOP struct {
	name string

	mu       sync.Mutex
	streams  []*burst.ServerStream
	cancels  int
	sessions []*burst.ServerSession
}

func (f *fakePOP) accept(rwc io.ReadWriteCloser) {
	var ss *burst.ServerSession
	ss = burst.NewServerSession(f.name, rwc, burst.ServerHandlerFuncs{
		Subscribe: func(st *burst.ServerStream, sub burst.Subscribe) {
			f.mu.Lock()
			f.streams = append(f.streams, st)
			f.mu.Unlock()
		},
		Cancel: func(st *burst.ServerStream, c burst.Cancel) {
			f.mu.Lock()
			f.cancels++
			f.mu.Unlock()
		},
	})
	f.mu.Lock()
	f.sessions = append(f.sessions, ss)
	f.mu.Unlock()
}

func (f *fakePOP) stream(i int) *burst.ServerStream {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i >= len(f.streams) {
		return nil
	}
	return f.streams[i]
}

func (f *fakePOP) kill() {
	f.mu.Lock()
	ss := append([]*burst.ServerSession(nil), f.sessions...)
	f.sessions = nil
	f.mu.Unlock()
	for _, s := range ss {
		_ = s.Close()
	}
}

func newWAS(t *testing.T) *was.Server {
	t.Helper()
	nodes := []*kvstore.Node{
		kvstore.NewNode("a", "us"), kvstore.NewNode("b", "eu"), kvstore.NewNode("c", "ap"),
	}
	pyl := pylon.MustNew(pylon.DefaultConfig(), kvstore.MustNewCluster(nodes, 3))
	store := tao.MustNewStore(tao.DefaultConfig(), nil)
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 20, MeanFriends: 3, Seed: 1})
	return was.New(store, graph, pyl, nil)
}

type devEnv struct {
	net  *edge.PipeNetwork
	popA *fakePOP
	popB *fakePOP
	dev  *Device
	was  *was.Server
}

func newDevEnv(t *testing.T) *devEnv {
	t.Helper()
	n := edge.NewPipeNetwork()
	a, b := &fakePOP{name: "pop-a"}, &fakePOP{name: "pop-b"}
	n.Register("pop-a", a.accept)
	n.Register("pop-b", b.accept)
	w := newWAS(t)
	d := New(Config{
		User:    7,
		POPs:    []string{"pop-a", "pop-b"},
		Backoff: faults.BackoffPolicy{Base: 5 * time.Millisecond},
	}, n, w, nil)
	t.Cleanup(d.Close)
	return &devEnv{net: n, popA: a, popB: b, dev: d, was: w}
}

func TestSubscribeRequiresConnection(t *testing.T) {
	env := newDevEnv(t)
	if _, err := env.dev.Subscribe("app", "s", nil); err != ErrNotConnected {
		t.Errorf("err = %v", err)
	}
}

func TestConnectSubscribeReceive(t *testing.T) {
	env := newDevEnv(t)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	if !env.dev.Connected() {
		t.Fatal("not connected")
	}
	st, err := env.dev.Subscribe("lvc", "liveVideoComments(videoID: 3)", burst.Header{"x": "y"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pop stream", func() bool { return env.popA.stream(0) != nil })
	req := env.popA.stream(0).Request()
	if req.Header[burst.HdrApp] != "lvc" || req.Header[burst.HdrUser] != "7" || req.Header["x"] != "y" {
		t.Errorf("header = %+v", req.Header)
	}
	if err := env.popA.stream(0).SendBatch(burst.PayloadDelta(4, []byte("c1"))); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-st.Updates:
		if string(d.Payload) != "c1" || d.Seq != 4 {
			t.Errorf("delta = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no update")
	}
	if st.LastSeq() != 4 {
		t.Errorf("LastSeq = %d", st.LastSeq())
	}
	if env.dev.Updates.Value() != 1 {
		t.Errorf("Updates = %d", env.dev.Updates.Value())
	}
}

func TestMaxStreams(t *testing.T) {
	n := edge.NewPipeNetwork()
	pop := &fakePOP{name: "pop"}
	n.Register("pop", pop.accept)
	d := New(Config{User: 1, POPs: []string{"pop"}, MaxStreams: 2}, n, newWAS(t), nil)
	defer d.Close()
	if err := d.Connect(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Subscribe("a", "s", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Subscribe("a", "s", nil); err == nil {
		t.Error("stream cap not enforced")
	}
	if d.Streams() != 2 {
		t.Errorf("Streams = %d", d.Streams())
	}
}

func TestReconnectRotatesPOPAndResubscribes(t *testing.T) {
	env := newDevEnv(t)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := env.dev.Subscribe("lvc", "sub", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream on pop-a", func() bool { return env.popA.stream(0) != nil })

	// The serving side delivers seq 12 and rewrites the resume token that
	// describes it into the request, as one batch. (A token for a payload
	// that never arrived would, correctly, be lowered on resubscribe.)
	if err := env.popA.stream(0).SendBatch(burst.PayloadDelta(12, []byte("before")),
		burst.RewriteDelta(burst.Header{burst.HdrResumeSeq: "12"}, nil)); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-st.Updates:
		if d.Seq != 12 {
			t.Fatalf("first update has seq %d", d.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no update before the failure")
	}
	if got := st.Request().Header[burst.HdrResumeSeq]; got != "12" {
		t.Fatalf("stored resume-seq = %q after the batch was applied", got)
	}

	env.popA.kill() // POP fails

	// Device reconnects (rotating to pop-b) and resubscribes with the
	// rewritten request.
	waitFor(t, "resubscribed on pop-b", func() bool { return env.popB.stream(0) != nil })
	req := env.popB.stream(0).Request()
	if req.Header[burst.HdrResumeSeq] != "12" {
		t.Errorf("resubscribe lost rewrite: %+v", req.Header)
	}
	if env.dev.Reconnects.Value() != 1 || env.dev.Resubscribes.Value() != 1 {
		t.Errorf("reconnects=%d resubs=%d", env.dev.Reconnects.Value(), env.dev.Resubscribes.Value())
	}
	// Flow channel observed recovery.
	select {
	case code := <-st.Flow:
		if code != burst.FlowDegraded && code != burst.FlowRecovered {
			t.Errorf("flow = %v", code)
		}
	case <-time.After(time.Second):
		t.Error("no flow event after reconnect")
	}
	// Stream still delivers.
	if err := env.popB.stream(0).SendBatch(burst.PayloadDelta(13, []byte("after"))); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-st.Updates:
		if string(d.Payload) != "after" {
			t.Errorf("payload = %q", d.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no update after reconnect")
	}
}

func TestCancelClosesChannelsAndNotifiesServer(t *testing.T) {
	env := newDevEnv(t)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, _ := env.dev.Subscribe("a", "s", nil)
	waitFor(t, "stream", func() bool { return env.popA.stream(0) != nil })
	st.Cancel("done")
	waitFor(t, "server cancel", func() bool {
		env.popA.mu.Lock()
		defer env.popA.mu.Unlock()
		return env.popA.cancels == 1
	})
	if _, ok := <-st.Updates; ok {
		t.Error("Updates open after cancel")
	}
	if env.dev.Streams() != 0 {
		t.Errorf("Streams = %d", env.dev.Streams())
	}
	st.Cancel("again") // idempotent
}

func TestServerTerminationClosesStream(t *testing.T) {
	env := newDevEnv(t)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, _ := env.dev.Subscribe("a", "s", nil)
	waitFor(t, "stream", func() bool { return env.popA.stream(0) != nil })
	_ = env.popA.stream(0).Terminate("bye")
	waitFor(t, "stream closed", func() bool { return env.dev.Streams() == 0 })
	for range st.Updates {
	} // drains and exits: channel closed
}

func TestQueryAndMutateHitWAS(t *testing.T) {
	env := newDevEnv(t)
	w := env.was
	w.RegisterQuery("ping", func(ctx was.Ctx, call was.FieldCall) (any, error) {
		return "pong", nil
	})
	w.RegisterMutation("set", func(ctx was.Ctx, call was.FieldCall) (any, error) {
		return ctx.Viewer, nil
	})
	out, err := env.dev.Query("ping")
	if err != nil || string(out) != `"pong"` {
		t.Errorf("query = %s, %v", out, err)
	}
	out, err = env.dev.Mutate("set")
	if err != nil || string(out) != "7" {
		t.Errorf("mutate = %s, %v", out, err)
	}
	if env.dev.Polls.Value() != 1 {
		t.Errorf("Polls = %d", env.dev.Polls.Value())
	}
}

func TestDialFailureRotatesPOP(t *testing.T) {
	env := newDevEnv(t)
	env.net.SetDown("pop-a", true)
	if err := env.dev.Connect(); err == nil {
		t.Fatal("dial to down pop succeeded")
	}
	// Second attempt goes to pop-b.
	if err := env.dev.Connect(); err != nil {
		t.Fatalf("second connect: %v", err)
	}
	if !env.dev.Connected() {
		t.Error("not connected after rotation")
	}
}

func TestCloseIsFinal(t *testing.T) {
	env := newDevEnv(t)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, _ := env.dev.Subscribe("a", "s", nil)
	env.dev.Close()
	if _, ok := <-st.Updates; ok {
		t.Error("stream open after device close")
	}
	if err := env.dev.Connect(); err == nil {
		t.Error("connect after close succeeded")
	}
	env.dev.Close() // idempotent
}

func TestStartPresenceReportsPeriodically(t *testing.T) {
	env := newDevEnv(t)
	w := env.was
	var mu sync.Mutex
	reports := 0
	w.RegisterMutation("reportActive", func(ctx was.Ctx, call was.FieldCall) (any, error) {
		mu.Lock()
		reports++
		mu.Unlock()
		return true, nil
	})
	stop := env.dev.StartPresence(10 * time.Millisecond)
	waitFor(t, "several reports", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return reports >= 3
	})
	stop()
	mu.Lock()
	at := reports
	mu.Unlock()
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	after := reports
	mu.Unlock()
	if after > at+1 { // one in-flight tick may land after stop
		t.Errorf("reports continued after stop: %d -> %d", at, after)
	}
	// Device close also ends reporting without panics.
	stop2 := env.dev.StartPresence(5 * time.Millisecond)
	defer stop2()
	env.dev.Close()
	time.Sleep(30 * time.Millisecond)
}

// TestPerStreamRetryRecoversOrphanedStream exercises the per-stream
// resubscribe retry: a stream left with no live client stream while the
// device holds a healthy session (the state a failed session-level
// resubscribe leaves behind) must re-establish itself via its backoff
// retry instead of waiting for the next session loss.
func TestPerStreamRetryRecoversOrphanedStream(t *testing.T) {
	env := newDevEnv(t)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := env.dev.Subscribe("app", "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial stream", func() bool { return env.popA.stream(0) != nil })

	// Orphan the stream: no current client stream, healthy session.
	st.mu.Lock()
	st.cur = nil
	st.curCli = nil
	st.mu.Unlock()
	st.scheduleResubscribe()

	waitFor(t, "retry re-subscribed", func() bool { return env.popA.stream(1) != nil })
	waitFor(t, "FlowRecovered", func() bool {
		select {
		case code := <-st.Flow:
			return code == burst.FlowRecovered
		default:
			return false
		}
	})
	if st.dev.Resubscribes.Value() != 1 {
		t.Errorf("Resubscribes = %d", st.dev.Resubscribes.Value())
	}
}

// TestResubscribeFailureArmsRetry drives the failure path itself: a
// resubscribe against a dead session must not strand the stream — the
// backoff retry re-establishes it on the device's healthy session.
func TestResubscribeFailureArmsRetry(t *testing.T) {
	env := newDevEnv(t)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := env.dev.Subscribe("app", "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial stream", func() bool { return env.popA.stream(0) != nil })

	// A client whose transport is already dead: Resubscribe on it fails.
	c1, c2 := net.Pipe()
	_ = c1.Close()
	_ = c2.Close()
	dead := burst.NewClient("dead", c1, func(error) {})
	st.mu.Lock()
	st.cur = nil
	st.curCli = nil
	st.mu.Unlock()
	st.resubscribe(dead)

	// The failed attempt must have armed the per-stream retry, which lands
	// on the live session.
	waitFor(t, "retry after failure", func() bool { return env.popA.stream(1) != nil })
}

// TestCancelStopsPendingRetry verifies stream teardown cancels an armed
// resubscribe retry.
func TestCancelStopsPendingRetry(t *testing.T) {
	n := edge.NewPipeNetwork()
	pop := &fakePOP{name: "pop-a"}
	n.Register("pop-a", pop.accept)
	d := New(Config{
		User: 7,
		POPs: []string{"pop-a"},
		// Slow backoff so the retry is still pending when Cancel runs.
		Backoff: faults.BackoffPolicy{Base: 200 * time.Millisecond, NoJitter: true},
	}, n, newWAS(t), nil)
	t.Cleanup(d.Close)
	if err := d.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := d.Subscribe("app", "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial stream", func() bool { return pop.stream(0) != nil })
	st.mu.Lock()
	st.cur = nil
	st.curCli = nil
	st.mu.Unlock()
	st.scheduleResubscribe()
	st.mu.Lock()
	armed := st.retryCancel != nil
	st.mu.Unlock()
	if !armed {
		t.Fatal("retry not armed")
	}
	st.Cancel("test")
	st.mu.Lock()
	cleared := st.retryCancel == nil
	st.mu.Unlock()
	if !cleared {
		t.Error("Cancel left the retry armed")
	}
	time.Sleep(300 * time.Millisecond)
	if pop.stream(1) != nil {
		t.Error("cancelled stream resubscribed anyway")
	}
}
