package device

import (
	"io"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
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

// next returns the next delta st hands out, failing the test if none comes
// within 5 s or the stream ends.
func next(t *testing.T, st *Stream) burst.Delta {
	t.Helper()
	select {
	case d, ok := <-bursttest.Events(t, st):
		if !ok {
			t.Fatal("the stream ended")
		}
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("no delta within 5 s")
	}
	return burst.Delta{}
}

// ended waits up to 5 s for st to report its end, discarding what it hands
// out first.
func ended(t *testing.T, st *Stream) {
	t.Helper()
	ev := bursttest.Events(t, st)
	for deadline := time.After(5 * time.Second); ; {
		select {
		case _, ok := <-ev:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("the stream did not end")
		}
	}
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
		Subscribe: func(st *burst.ServerStream) {
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
	if !connected(env.dev) {
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
	if d := next(t, st); d.Type != burst.DeltaPayload || string(d.Payload) != "c1" || d.Seq != 4 {
		t.Errorf("delta = %+v", d)
	}
	if resumePoint(st) != 4 {
		t.Errorf("LastSeq = %d", resumePoint(st))
	}
	if env.dev.Updates.Value() != 1 {
		t.Errorf("Updates = %d", env.dev.Updates.Value())
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

	// The serving side delivers seq 12 and rewrites the cursor that
	// describes it into the request, as one batch. (A cursor for a payload
	// that never arrived would, correctly, be lowered on resubscribe.)
	if err := env.popA.stream(0).SendBatch(burst.PayloadDelta(12, []byte("before")),
		burst.RewriteDelta(burst.Header{burst.HdrCursor: "0.12"}, nil)); err != nil {
		t.Fatal(err)
	}
	if d := next(t, st); d.Type != burst.DeltaPayload || d.Seq != 12 {
		t.Fatalf("first delta %+v, want payload 12", d)
	}
	if got := st.Request().Header[burst.HdrCursor]; got != "0.12" {
		t.Fatalf("stored cursor = %q after the batch was applied", got)
	}

	env.popA.kill() // POP fails

	// Device reconnects (rotating to pop-b) and resubscribes with the
	// rewritten request.
	waitFor(t, "resubscribed on pop-b", func() bool { return env.popB.stream(0) != nil })
	req := env.popB.stream(0).Request()
	if req.Header[burst.HdrCursor] != "0.12" {
		t.Errorf("resubscribe lost rewrite: %+v", req.Header)
	}
	if env.dev.Reconnects.Value() != 1 || env.dev.Resubscribes.Value() != 1 {
		t.Errorf("reconnects=%d resubs=%d", env.dev.Reconnects.Value(), env.dev.Resubscribes.Value())
	}
	// Stream still delivers, behind the flow statuses of the failure: the
	// session's loss, if Next read it before the resubscribe, and the
	// recovery, which is last.
	if err := env.popB.stream(0).SendBatch(burst.PayloadDelta(13, []byte("after"))); err != nil {
		t.Fatal(err)
	}
	var flows []burst.FlowCode
	d := next(t, st)
	for ; d.Type == burst.DeltaFlowStatus; d = next(t, st) {
		flows = append(flows, d.Flow)
	}
	if len(flows) == 0 || flows[len(flows)-1] != burst.FlowRecovered {
		t.Errorf("flow statuses %v before the next payload, want the recovery last", flows)
	}
	if string(d.Payload) != "after" {
		t.Errorf("payload = %q", d.Payload)
	}
}

func TestCancelClosesChannelsAndNotifiesServer(t *testing.T) {
	env := newDevEnv(t)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, _ := env.dev.Subscribe("a", "s", nil)
	waitFor(t, "stream", func() bool { return env.popA.stream(0) != nil })
	st.end(true, "done")
	waitFor(t, "server cancel", func() bool {
		env.popA.mu.Lock()
		defer env.popA.mu.Unlock()
		return env.popA.cancels == 1
	})
	if _, ok := st.Next(); ok {
		t.Error("Next hands out deltas after cancel")
	}
	if n := openStreams(env.dev); n != 0 {
		t.Errorf("device holds %d streams", n)
	}
	st.end(true, "again") // idempotent
}

// resumePoint is st's resume point: the highest payload seq handed out
// with no shed gap known below it.
func resumePoint(st *Stream) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rec.Seq()
}

// openStreams is how many streams d holds.
func openStreams(d *Device) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.streams)
}

// connected reports whether d has a session up.
func connected(d *Device) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.connected
}

func TestServerTerminationClosesStream(t *testing.T) {
	env := newDevEnv(t)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, _ := env.dev.Subscribe("a", "s", nil)
	waitFor(t, "stream", func() bool { return env.popA.stream(0) != nil })
	_ = env.popA.stream(0).Terminate("bye")
	ended(t, st) // Next reads the termination and ends the stream
	if n := openStreams(env.dev); n != 0 {
		t.Errorf("device holds %d streams after the termination", n)
	}
}

func TestQueryAndMutateHitWAS(t *testing.T) {
	env := newDevEnv(t)
	w := env.was
	w.RegisterQuery("ping", func(ctx was.Ctx, call was.FieldCall) ([]byte, error) {
		return []byte(`"pong"`), nil
	})
	w.RegisterMutation("set", func(ctx was.Ctx, call was.FieldCall) ([]byte, error) {
		return strconv.AppendUint(nil, uint64(ctx.Viewer), 10), nil
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
	if !connected(env.dev) {
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
	if _, ok := st.Next(); ok {
		t.Error("stream open after device close")
	}
	if err := env.dev.Connect(); err == nil {
		t.Error("connect after close succeeded")
	}
	env.dev.Close() // idempotent
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

	// Orphan the stream: no current client stream (the one it had has
	// ended), healthy session.
	st.mu.Lock()
	orphaned := st.cur
	st.cur = nil
	st.mu.Unlock()
	_ = orphaned.Cancel("orphaned")
	st.mu.Lock()
	st.reopenLocked(nil, true)
	st.mu.Unlock()

	waitFor(t, "retry re-subscribed", func() bool { return env.popA.stream(1) != nil })
	if d := next(t, st); d.Type != burst.DeltaFlowStatus || d.Flow != burst.FlowRecovered {
		t.Errorf("first delta after the retry %+v, want FlowRecovered", d)
	}
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
	st.reopenLocked(nil, true)
	armed := st.reopenCancel != nil
	st.mu.Unlock()
	if !armed {
		t.Fatal("retry not armed")
	}
	st.end(true, "test")
	st.mu.Lock()
	cleared := st.reopenCancel == nil
	st.mu.Unlock()
	if !cleared {
		t.Error("Cancel left the retry armed")
	}
	time.Sleep(300 * time.Millisecond)
	if pop.stream(1) != nil {
		t.Error("cancelled stream resubscribed anyway")
	}
}
