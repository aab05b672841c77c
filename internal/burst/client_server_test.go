package burst

import (
	"errors"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/burst/bursttest"
)

// echoServer subscribes streams and records events for assertions.
type echoServer struct {
	mu      sync.Mutex
	streams []*ServerStream
	subs    []Subscribe
	cancels []Cancel
	acks    []Ack
	closed  bool
}

func (e *echoServer) OnSubscribe(st *ServerStream, sub Subscribe) {
	e.mu.Lock()
	e.streams = append(e.streams, st)
	e.subs = append(e.subs, sub)
	e.mu.Unlock()
}

func (e *echoServer) OnCancel(st *ServerStream, c Cancel) {
	e.mu.Lock()
	e.cancels = append(e.cancels, c)
	e.mu.Unlock()
}

func (e *echoServer) OnAck(st *ServerStream, a Ack) {
	e.mu.Lock()
	e.acks = append(e.acks, a)
	e.mu.Unlock()
}

func (e *echoServer) OnSessionClose(streams []*ServerStream, err error) {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
}

func (e *echoServer) stream(i int) *ServerStream {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i >= len(e.streams) {
		return nil
	}
	return e.streams[i]
}

func newClientServer(t *testing.T) (*Client, *ServerSession, *echoServer) {
	t.Helper()
	a, b := pipePair()
	cli := NewClient("device", a, nil)
	srv := &echoServer{}
	ss := NewServerSession("brass", b, srv)
	t.Cleanup(func() { cli.Close(); ss.Close() })
	return cli, ss, srv
}

// recvBatch takes the next batch off ev, a stream's bursttest.Events.
func recvBatch(t *testing.T, ev <-chan *Received) []Delta {
	t.Helper()
	select {
	case b, ok := <-ev:
		if !ok {
			t.Fatal("stream ended while expecting batch")
		}
		return b.Deltas
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for batch")
		return nil
	}
}

func TestSubscribeAndDeliver(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, err := cli.Subscribe(Subscribe{Header: Header{HdrApp: "lvc", HdrTopic: "/LVC/1"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "server sees stream", func() bool { return srv.stream(0) != nil })
	ss := srv.stream(0)
	if got := ss.Request().Header[HdrTopic]; got != "/LVC/1" {
		t.Errorf("server topic = %q", got)
	}
	if err := ss.SendBatch(PayloadDelta(1, []byte("hello")), PayloadDelta(2, []byte("world"))); err != nil {
		t.Fatal(err)
	}
	batch := recvBatch(t, bursttest.Events(t, st))
	if len(batch) != 2 || string(batch[0].Payload) != "hello" || string(batch[1].Payload) != "world" {
		t.Errorf("batch = %+v", batch)
	}
	if st.LastSeq() != 2 {
		t.Errorf("LastSeq = %d", st.LastSeq())
	}
}

func TestMultipleIndependentStreams(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st1, _ := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/a"}})
	st2, _ := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/b"}})
	if st1.SID() == st2.SID() {
		t.Fatal("stream ids collide")
	}
	waitFor(t, "two streams", func() bool { return srv.stream(1) != nil })
	// Deliver only to stream 2.
	if err := srv.stream(1).SendBatch(PayloadDelta(0, []byte("b-data"))); err != nil {
		t.Fatal(err)
	}
	batch := recvBatch(t, bursttest.Events(t, st2))
	if string(batch[0].Payload) != "b-data" {
		t.Errorf("stream2 got %q", batch[0].Payload)
	}
	select {
	case b := <-bursttest.Events(t, st1):
		t.Errorf("stream1 unexpectedly got %+v", b.Deltas)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestRewriteUpdatesClientStateInvisibly(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, _ := cli.Subscribe(Subscribe{Header: Header{HdrApp: "lvc", HdrTopic: "/LVC/1"}})
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	ss := srv.stream(0)
	// Sticky routing: BRASS pins itself into the header.
	if err := ss.RewriteHeaderField(HdrStickyBRASS, "brass-42"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rewrite applied", func() bool {
		return st.Request().Header[HdrStickyBRASS] == "brass-42"
	})
	// The rewrite must NOT surface as an application event.
	select {
	case b := <-bursttest.Events(t, st):
		t.Errorf("rewrite surfaced to application: %+v", b.Deltas)
	case <-time.After(50 * time.Millisecond):
	}
	// Original fields preserved.
	req := st.Request()
	if req.Header[HdrTopic] != "/LVC/1" || req.Header[HdrApp] != "lvc" {
		t.Errorf("rewrite lost fields: %+v", req.Header)
	}
	// Server's own copy tracks the rewrite too.
	if got := ss.Request().Header[HdrStickyBRASS]; got != "brass-42" {
		t.Errorf("server copy = %q", got)
	}
}

func TestRewriteBodyReplacement(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, _ := cli.Subscribe(Subscribe{Header: Header{HdrApp: "m"}, Body: []byte("orig")})
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	if err := srv.stream(0).Rewrite(nil, []byte("new-body")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "body rewritten", func() bool { return string(st.Request().Body) == "new-body" })
	// Header untouched by nil header rewrite.
	if st.Request().Header[HdrApp] != "m" {
		t.Errorf("header lost: %+v", st.Request().Header)
	}
}

func TestResumptionViaRewrite(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, _ := cli.Subscribe(Subscribe{Header: Header{HdrApp: "msgr", HdrResumeSeq: "0"}})
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	ss := srv.stream(0)
	// Deliver payloads 1..3, each followed by a resume-token rewrite.
	for seq := uint64(1); seq <= 3; seq++ {
		if err := ss.SendBatch(PayloadDelta(seq, []byte("m"))); err != nil {
			t.Fatal(err)
		}
		if err := ss.RewriteHeaderField(HdrResumeSeq, "3"); err != nil && seq == 3 {
			t.Fatal(err)
		}
	}
	ev := bursttest.Events(t, st)
	for i := 0; i < 3; i++ {
		recvBatch(t, ev)
	}
	waitFor(t, "resume token", func() bool { return st.Request().Header[HdrResumeSeq] == "3" })
	// After a failure the device resubscribes with the stored request —
	// it carries the resume token without the app tracking it.
	if st.Request().Header[HdrResumeSeq] != "3" {
		t.Errorf("resume seq = %q", st.Request().Header[HdrResumeSeq])
	}
}

func TestClientCancelReachesServer(t *testing.T) {
	cli, ss, srv := newClientServer(t)
	st, _ := cli.Subscribe(Subscribe{Header: Header{HdrApp: "x"}})
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	if err := st.Cancel("user scrolled away"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cancel", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.cancels) == 1
	})
	srv.mu.Lock()
	reason := srv.cancels[0].Reason
	srv.mu.Unlock()
	if reason != "user scrolled away" {
		t.Errorf("cancel reason = %q", reason)
	}
	if got := len(ss.Streams()); got != 0 {
		t.Errorf("server still tracks %d streams", got)
	}
	// Sending on the cancelled stream fails server-side.
	sst := srv.stream(0)
	if err := sst.SendBatch(PayloadDelta(0, nil)); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("send after cancel: %v", err)
	}
}

func TestServerTerminateClosesClientStream(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, _ := cli.Subscribe(Subscribe{Header: Header{HdrApp: "x"}})
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	if err := srv.stream(0).Terminate("redirect"); err != nil {
		t.Fatal(err)
	}
	ev := bursttest.Events(t, st)
	batch := recvBatch(t, ev)
	if batch[0].Type != DeltaTermination || batch[0].Reason != "redirect" {
		t.Errorf("termination = %+v", batch[0])
	}
	// The stream ends after termination.
	if _, ok := <-ev; ok {
		t.Error("stream still open after termination")
	}
	if got := len(cli.Streams()); got != 0 {
		t.Errorf("client still tracks %d streams", got)
	}
	// Every send on the terminated stream fails server-side, and a rewrite
	// it carries is not applied to the stored request.
	if err := srv.stream(0).SendBatch(PayloadDelta(2, []byte("y")), RewriteDelta(Header{"k": "v"}, nil)); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("SendBatch after terminate = %v, want ErrStreamClosed", err)
	}
	if got := srv.stream(0).HeaderField("k"); got != "" {
		t.Errorf("rewrite on a terminated stream reached the stored request: %q", got)
	}
}

func TestAckFlowsUpstream(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, _ := cli.Subscribe(Subscribe{Header: Header{HdrApp: "msgr"}})
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	if err := st.Ack(17); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ack", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.acks) == 1 && srv.acks[0].Seq == 17
	})
}

func TestSessionFailureSignalsAllStreams(t *testing.T) {
	a, b := pipePair()
	closed := make(chan error, 1)
	cli := NewClient("device", a, func(err error) { closed <- err })
	srv := &echoServer{}
	ss := NewServerSession("brass", b, srv)
	st1, _ := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/a"}})
	st2, _ := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/b"}})
	waitFor(t, "streams", func() bool { return srv.stream(1) != nil })
	// Kill the transport from the server side (BRASS host dies).
	ss.Close()
	for _, st := range []*ClientStream{st1, st2} {
		ev := bursttest.Events(t, st)
		batch := recvBatch(t, ev)
		if batch[0].Type != DeltaFlowStatus || batch[0].Flow != FlowDegraded {
			t.Errorf("stream %d got %+v, want FlowDegraded", st.SID(), batch[0])
		}
		if _, ok := <-ev; ok {
			t.Errorf("stream %d open after session loss", st.SID())
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("client onClose never ran")
	}
	// Stored requests survive for resubscription.
	if st1.Request().Header[HdrTopic] != "/a" {
		t.Error("stored request lost after failure")
	}
}

func TestServerSessionCloseNotifiesStreams(t *testing.T) {
	a, b := pipePair()
	cli := NewClient("device", a, nil)
	type closeInfo struct {
		n   int
		err error
	}
	closedCh := make(chan closeInfo, 1)
	NewServerSession("brass", b, ServerHandlerFuncs{
		SessionClose: func(streams []*ServerStream, err error) {
			closedCh <- closeInfo{len(streams), err}
		},
	})
	if _, err := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/x"}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the subscribe land
	cli.Close()
	select {
	case info := <-closedCh:
		if info.n != 1 {
			t.Errorf("streams at close = %d, want 1", info.n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server session close never fired")
	}
}

func TestSubscribeAfterClientClose(t *testing.T) {
	cli, _, _ := newClientServer(t)
	cli.Close()
	waitFor(t, "closed", func() bool {
		_, err := cli.Subscribe(Subscribe{})
		return err != nil
	})
}

func TestDuplicateSIDIgnored(t *testing.T) {
	a, b := pipePair()
	srv := &echoServer{}
	NewServerSession("brass", b, srv)
	// Handcraft duplicate subscribes on the same SID.
	sess := NewSession("raw", a, HandlerFuncs{})
	defer sess.Close()
	_ = sess.SendMsg(FrameSubscribe, 9, Subscribe{Header: Header{HdrTopic: "/a"}})
	_ = sess.SendMsg(FrameSubscribe, 9, Subscribe{Header: Header{HdrTopic: "/b"}})
	waitFor(t, "first subscribe", func() bool { return srv.stream(0) != nil })
	time.Sleep(30 * time.Millisecond)
	srv.mu.Lock()
	n := len(srv.streams)
	srv.mu.Unlock()
	if n != 1 {
		t.Errorf("server registered %d streams for duplicate sid", n)
	}
}

func TestServerSessionAccessors(t *testing.T) {
	cli, ss, srv := newClientServer(t)
	if ss.Name() != "brass" {
		t.Errorf("Name = %q", ss.Name())
	}
	st, _ := cli.Subscribe(Subscribe{Header: Header{HdrApp: "x"}})
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	sst := srv.stream(0)
	if got := ss.Stream(sst.SID()); got != sst {
		t.Error("Stream lookup by SID failed")
	}
	if ss.Stream(9999) != nil {
		t.Error("unknown SID returned a stream")
	}
	_ = st.Cancel("done")
	ss.Close()
	select {
	case <-ss.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done never closed")
	}
}

func TestStreamsAccessor(t *testing.T) {
	cli, ss, srv := newClientServer(t)
	for i := 0; i < 3; i++ {
		if _, err := cli.Subscribe(Subscribe{Header: Header{HdrApp: "x"}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "streams", func() bool { return srv.stream(2) != nil })
	if got := len(ss.Streams()); got != 3 {
		t.Errorf("server Streams = %d", got)
	}
	if got := len(cli.Streams()); got != 3 {
		t.Errorf("client Streams = %d", got)
	}
}
