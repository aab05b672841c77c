package edge

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
	"bladerunner/internal/frame"
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

// upstreamServer is a scripted BRASS-like endpoint for proxy tests.
type upstreamServer struct {
	name string
	// onSubscribe, if set, runs after a stream is recorded.
	onSubscribe func(*upstreamServer, *burst.ServerStream)

	mu       sync.Mutex
	streams  []*burst.ServerStream
	cancels  []burst.Cancel
	sessions []*burst.ServerSession
}

func (u *upstreamServer) accept(rwc io.ReadWriteCloser) {
	var ss *burst.ServerSession
	ss = burst.NewServerSession(u.name, rwc, burst.ServerHandlerFuncs{
		Subscribe: func(st *burst.ServerStream) {
			u.mu.Lock()
			u.streams = append(u.streams, st)
			u.mu.Unlock()
			if u.onSubscribe != nil {
				u.onSubscribe(u, st)
			}
		},
		Cancel: func(st *burst.ServerStream, c burst.Cancel) {
			u.mu.Lock()
			u.cancels = append(u.cancels, burst.Cancel{Reason: strings.Clone(c.Reason)}) // the reason is borrowed
			u.mu.Unlock()
		},
	})
	u.mu.Lock()
	u.sessions = append(u.sessions, ss)
	u.mu.Unlock()
}

func (u *upstreamServer) stream(i int) *burst.ServerStream {
	u.mu.Lock()
	defer u.mu.Unlock()
	if i >= len(u.streams) {
		return nil
	}
	return u.streams[i]
}

func (u *upstreamServer) streamCount() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.streams)
}

func (u *upstreamServer) killSessions() {
	u.mu.Lock()
	sessions := append([]*burst.ServerSession(nil), u.sessions...)
	u.sessions = nil
	u.mu.Unlock()
	for _, s := range sessions {
		_ = s.Close()
	}
}

type proxyEnv struct {
	net    *PipeNetwork
	proxy  *Proxy
	brassA *upstreamServer
	brassB *upstreamServer
	client *burst.Client
}

func newProxyEnv(t *testing.T) *proxyEnv {
	t.Helper()
	return newProxyEnvVia(t, func(n *PipeNetwork) Dialer { return n })
}

// newProxyEnvVia is newProxyEnv with the proxy dialing through dialer(n).
func newProxyEnvVia(t *testing.T, dialer func(n *PipeNetwork) Dialer) *proxyEnv {
	t.Helper()
	n := NewPipeNetwork()
	a := &upstreamServer{name: "brass-a"}
	b := &upstreamServer{name: "brass-b"}
	n.Register("brass-a", a.accept)
	n.Register("brass-b", b.accept)
	p := NewProxy("pop-1", dialer(n), StickyRouter{Fallback: NewRoundRobinRouter("brass-a", "brass-b")})
	n.Register("pop-1", p.Accept)
	rwc, err := n.Dial("pop-1")
	if err != nil {
		t.Fatal(err)
	}
	cli := burst.NewClient("device", rwc, nil)
	t.Cleanup(func() { cli.Close(); p.Close() })
	return &proxyEnv{net: n, proxy: p, brassA: a, brassB: b, client: cli}
}

func subscribeSticky(t *testing.T, env *proxyEnv, target string) *burst.ClientStream {
	t.Helper()
	st, err := env.client.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp:         "echo",
		burst.HdrTopic:       "/t/1",
		burst.HdrStickyBRASS: target,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestProxyRelaysSubscribeAndDeltas(t *testing.T) {
	env := newProxyEnv(t)
	st := subscribeSticky(t, env, "brass-a")
	waitFor(t, "upstream stream", func() bool { return env.brassA.stream(0) != nil })
	up := env.brassA.stream(0)
	if got := up.Request().Header[burst.HdrTopic]; got != "/t/1" {
		t.Errorf("upstream header topic = %q", got)
	}
	if err := up.SendBatch(burst.PayloadDelta(1, []byte("data"))); err != nil {
		t.Fatal(err)
	}
	select {
	case batch := <-bursttest.Events(t, st):
		if string(batch.Deltas[0].Payload) != "data" {
			t.Errorf("payload = %q", batch.Deltas[0].Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delta never relayed")
	}
	if env.proxy.StreamsRelayed.Value() != 1 || env.proxy.ActiveStreams.Value() != 1 {
		t.Errorf("relayed=%d active=%d", env.proxy.StreamsRelayed.Value(), env.proxy.ActiveStreams.Value())
	}
}

func TestProxyRelaysRewritesAndTracksState(t *testing.T) {
	env := newProxyEnv(t)
	st := subscribeSticky(t, env, "brass-a")
	waitFor(t, "upstream stream", func() bool { return env.brassA.stream(0) != nil })
	if err := env.brassA.stream(0).RewriteHeaderField("cursor", "1.41"); err != nil {
		t.Fatal(err)
	}
	// The device's stored request gets the rewrite through the proxy.
	waitFor(t, "device rewrite", func() bool {
		return st.Request().Header["cursor"] == "1.41"
	})
	if env.proxy.RewritesRelayed.Value() != 1 {
		t.Errorf("RewritesRelayed = %d", env.proxy.RewritesRelayed.Value())
	}
	// No app-visible event for the rewrite at the device.
	select {
	case b := <-bursttest.Events(t, st):
		t.Errorf("rewrite leaked to device app: %+v", b.Deltas)
	case <-time.After(30 * time.Millisecond):
	}
}

func TestProxyRepairsStreamAfterUpstreamFailure(t *testing.T) {
	wire := &wireLog{}
	env := newProxyEnvVia(t, func(n *PipeNetwork) Dialer { wire.inner = n; return wire })
	st := subscribeSticky(t, env, "brass-a")
	waitFor(t, "upstream on A", func() bool { return env.brassA.stream(0) != nil })
	rs := relays(env.proxy)
	if len(rs) != 1 || rs[0].leg() != &rs[0].first {
		t.Fatal("the relay's first leg is not the one inside it")
	}
	r := rs[0]

	// BRASS patches three different keys; the repair must carry all three
	// and every key of the original subscribe.
	for _, kv := range [][2]string{{"client-version", "7"}, {"cursor", "1.7"}, {"rl-state", "bucket=3"}} {
		if err := env.brassA.stream(0).RewriteHeaderField(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "rewrites", func() bool { return st.HeaderField("rl-state") == "bucket=3" })

	// Kill brass-a: its sessions die and the target becomes undialable.
	env.net.SetDown(true, "brass-a")
	env.brassA.killSessions()

	// Device sees degraded then rerouted, in order.
	ev := bursttest.Events(t, st)
	var flows []burst.FlowCode
	deadline := time.After(5 * time.Second)
	for len(flows) < 2 {
		select {
		case batch := <-ev:
			for _, d := range batch.Deltas {
				if d.Type == burst.DeltaFlowStatus {
					flows = append(flows, d.Flow)
				}
			}
		case <-deadline:
			t.Fatalf("flows so far: %v", flows)
		}
	}
	if flows[0] != burst.FlowDegraded || flows[1] != burst.FlowRerouted {
		t.Errorf("flow sequence = %v", flows)
	}
	// Stream landed on brass-b with the rewritten request. The sticky
	// header pointed at brass-a, but it is avoided after the failure.
	waitFor(t, "repaired on B", func() bool { return env.brassB.stream(0) != nil })
	want := burst.Header{
		burst.HdrApp: "echo", burst.HdrTopic: "/t/1", burst.HdrStickyBRASS: "brass-a",
		"client-version": "7", "cursor": "1.7", "rl-state": "bucket=3",
	}
	if got := env.brassB.stream(0).Request().Header; !reflect.DeepEqual(got, want) {
		t.Errorf("repair carried %+v, want the merged state %+v", got, want)
	}
	// The repair is encoded from the relay's stored pairs, not from a map:
	// the subscribe's keys in the order the device sent them, then the three
	// patched keys in the order they were patched.
	opened, repaired := wire.subscribes(t, "brass-a"), wire.subscribes(t, "brass-b")
	if len(opened) != 1 || len(repaired) != 1 {
		t.Fatalf("%d subscribes to brass-a and %d to brass-b, want one each", len(opened), len(repaired))
	}
	wantPairs := append(wirePairs(t, opened[0]), [][2]string{{"client-version", "7"}, {"cursor", "1.7"}, {"rl-state", "bucket=3"}}...)
	if got := wirePairs(t, repaired[0]); !reflect.DeepEqual(got, wantPairs) {
		t.Errorf("the repair sent the pairs %q, want %q", got, wantPairs)
	}
	if env.proxy.Reconnects.Value() != 1 {
		t.Errorf("Reconnects = %d", env.proxy.Reconnects.Value())
	}
	// The repair opened a fresh leg: the first is never reopened.
	if up := r.leg(); up == nil || up == &r.first {
		t.Errorf("the repaired relay's leg is %p, its first %p: want a fresh one", up, &r.first)
	}
	// The repaired stream still works end to end.
	if err := env.brassB.stream(0).SendBatch(burst.PayloadDelta(8, []byte("post-repair"))); err != nil {
		t.Fatal(err)
	}
	select {
	case batch := <-ev:
		if string(batch.Deltas[0].Payload) != "post-repair" {
			t.Errorf("payload = %q", batch.Deltas[0].Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery after repair")
	}
}

// A subscribe relayed through two proxies reaches the upstream with its pairs
// in the device's order: a relay encodes the upstream leg's subscribe from
// the pairs its downstream stream stored, so with no rewrite in between the
// header is the same bytes at every hop (a map's iteration order used to make
// them differ).
func TestRelayedSubscribeKeepsDeviceOrder(t *testing.T) {
	n := NewPipeNetwork()
	wire := &wireLog{inner: n}
	up := &upstreamServer{name: "brass-a"}
	n.Register("brass-a", up.accept)
	rproxy := NewProxy("rproxy-1", wire, StaticRouter("brass-a"))
	n.Register("rproxy-1", rproxy.Accept)
	pop := NewProxy("pop-1", wire, StaticRouter("rproxy-1"))
	n.Register("pop-1", pop.Accept)
	rwc, err := wire.Dial("pop-1")
	if err != nil {
		t.Fatal(err)
	}
	cli := burst.NewClient("device", rwc, nil)
	t.Cleanup(func() { cli.Close(); pop.Close(); rproxy.Close() })
	hdr := burst.Header{burst.HdrApp: "feedcomments", burst.HdrSubscription: "feedPostComments(postID: 17)",
		burst.HdrUser: "9", burst.HdrTraceStream: "dev/1", burst.HdrClientVersion: "7", "lang": "en", "tz": "UTC"}
	for i := 0; i < 8; i++ {
		if _, err := cli.Subscribe(burst.Subscribe{Header: hdr, Body: []byte("body")}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every stream upstream", func() bool { return up.streamCount() == 8 })
	device, popUp, proxyUp := wire.subscribes(t, "pop-1"), wire.subscribes(t, "rproxy-1"), wire.subscribes(t, "brass-a")
	if len(device) != 8 || len(popUp) != 8 || len(proxyUp) != 8 {
		t.Fatalf("subscribes: %d from the device, %d from the POP, %d from the proxy; want 8 each", len(device), len(popUp), len(proxyUp))
	}
	for i := range device {
		if got := wirePairs(t, device[i]); len(got) != len(hdr) {
			t.Fatalf("the device sent %q", got)
		}
		if !bytes.Equal(popUp[i], device[i]) || !bytes.Equal(proxyUp[i], device[i]) {
			t.Errorf("stream %d: the device sent %q, the POP %q, the proxy %q", i,
				wirePairs(t, device[i]), wirePairs(t, popUp[i]), wirePairs(t, proxyUp[i]))
		}
	}
}

// wireLog is a Dialer that keeps a copy of every byte written to each target
// it dials.
type wireLog struct {
	inner Dialer
	mu    sync.Mutex
	sent  map[string]*bytes.Buffer
}

func (w *wireLog) Dial(target string) (io.ReadWriteCloser, error) {
	rwc, err := w.inner.Dial(target)
	if err != nil {
		return nil, err
	}
	return loggedConn{rwc, w, target}, nil
}

type loggedConn struct {
	io.ReadWriteCloser
	log    *wireLog
	target string
}

func (c loggedConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	if c.log.sent == nil {
		c.log.sent = make(map[string]*bytes.Buffer)
	}
	if c.log.sent[c.target] == nil {
		c.log.sent[c.target] = new(bytes.Buffer)
	}
	c.log.sent[c.target].Write(p) // a session writes whole frames
	c.log.mu.Unlock()
	return c.ReadWriteCloser.Write(p)
}

// subscribes returns the payloads of the subscribe frames written to target,
// in the order they were written.
func (w *wireLog) subscribes(t *testing.T, target string) [][]byte {
	t.Helper()
	w.mu.Lock()
	var sent []byte
	if b := w.sent[target]; b != nil {
		sent = bytes.Clone(b.Bytes())
	}
	w.mu.Unlock()
	var out [][]byte
	br := bufio.NewReader(bytes.NewReader(sent))
	for {
		f, err := burst.ReadFrame(br)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("frames to %s: %v", target, err)
		}
		if f.Type == burst.FrameSubscribe {
			out = append(out, f.Payload)
		}
	}
}

// wirePairs reads a subscribe payload's header pairs in wire order.
func wirePairs(t *testing.T, payload []byte) [][2]string {
	t.Helper()
	r := frame.Reader{B: payload}
	if r.Byte() == 0 {
		return nil
	}
	pairs := make([][2]string, r.Count(2))
	for i := range pairs {
		pairs[i] = [2]string{r.Str(), r.Str()}
	}
	r.Bytes() // the body
	if err := r.Done(); err != nil {
		t.Fatalf("subscribe payload %q: %v", payload, err)
	}
	return pairs
}

// TestProxyHandsTheLossDown: a relay whose upstream always refuses makes its
// one re-route, then hands the loss down. The device's stream gets the
// upstream-lost marker to reopen from and is never terminated, and nothing of
// the relay outlives Proxy.Close.
func TestProxyHandsTheLossDown(t *testing.T) {
	before := settledGoroutines()
	n := NewPipeNetwork()
	a := &upstreamServer{name: "brass-a"}
	n.Register("brass-a", a.accept)
	p := NewProxy("pop-1", n, StaticRouter("brass-a"))
	n.Register("pop-1", p.Accept)
	rwc, _ := n.Dial("pop-1")
	cli := burst.NewClient("device", rwc, nil)
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrTopic: "/t"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "upstream", func() bool { return a.stream(0) != nil })
	n.SetDown(true, "brass-a")
	a.killSessions()

	ev := bursttest.Events(t, st)
	deadline := time.After(5 * time.Second)
	for lost := false; !lost; {
		select {
		case batch, ok := <-ev:
			if !ok {
				t.Fatal("the stream ended without the upstream-lost marker")
			}
			for _, d := range batch.Deltas {
				if d.Type == burst.DeltaTermination {
					t.Fatalf("the relay terminated the stream: %q", d.Reason)
				}
				lost = lost || d.Flow == burst.FlowDegraded && d.FlowDetail == burst.UpstreamLostDetail
			}
		case <-deadline:
			t.Fatal("no upstream-lost marker")
		}
	}
	waitFor(t, "the relay collected", func() bool { return p.ActiveStreams.Value() == 0 })
	select {
	case batch, ok := <-ev:
		t.Fatalf("the stream got %+v (open %v) after the hand-down, want nothing", batch, ok)
	case <-time.After(50 * time.Millisecond):
	}
	if got := p.RepairFailures.Value(); got != 1 {
		t.Errorf("RepairFailures = %d, want one hand-down", got)
	}
	if got := p.Reconnects.Value(); got != 0 {
		t.Errorf("Reconnects = %d, want 0", got)
	}
	cli.Close()
	p.Close()
	for range ev { // the device's own session loss, then the pump's end
	}
	waitFor(t, "the relay's goroutines gone", func() bool { return settledGoroutines() <= before })
}

// TestRelayReroutesAroundAHandedDownLoss: the upstream-lost marker from the
// relay above is the relay's own lost leg. The POP cancels that leg, whose
// session still lives, and re-routes to the other reverse proxy; the device
// only hears the re-route.
func TestRelayReroutesAroundAHandedDownLoss(t *testing.T) {
	n := NewPipeNetwork()
	a, b := &upstreamServer{name: "brass-a"}, &upstreamServer{name: "brass-b"}
	n.Register("brass-a", a.accept)
	n.Register("brass-b", b.accept)
	rp1 := NewProxy("rproxy-1", n, StaticRouter("brass-a"))
	rp2 := NewProxy("rproxy-2", n, StaticRouter("brass-b"))
	n.Register("rproxy-1", rp1.Accept)
	n.Register("rproxy-2", rp2.Accept)
	pop := NewProxy("pop-1", n, NewRoundRobinRouter("rproxy-1", "rproxy-2"))
	n.Register("pop-1", pop.Accept)
	rwc, err := n.Dial("pop-1")
	if err != nil {
		t.Fatal(err)
	}
	cli := burst.NewClient("device", rwc, nil)
	t.Cleanup(func() { cli.Close(); pop.Close(); rp1.Close(); rp2.Close() })
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrTopic: "/t/3"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the stream on brass-a", func() bool { return a.stream(0) != nil })

	n.SetDown(true, "brass-a")
	a.killSessions()
	waitFor(t, "the stream re-routed onto brass-b", func() bool { return b.stream(0) != nil })
	// The POP's session to rproxy-1 lives on, and its cancel takes the
	// handed-down stream off it.
	downstreamStreams := func() (sessions, streams int) {
		rp1.mu.Lock()
		defer rp1.mu.Unlock()
		for ss := range rp1.downs {
			sessions, streams = sessions+1, streams+len(ss.Streams())
		}
		return sessions, streams
	}
	waitFor(t, "rproxy-1 handing down and the POP cancelling that leg", func() bool {
		sessions, streams := downstreamStreams()
		return rp1.RepairFailures.Value() == 1 && sessions == 1 && streams == 0
	})
	if got := pop.RepairFailures.Value(); got != 0 {
		t.Errorf("the POP handed down %d losses, want 0: it had its re-route left", got)
	}
	if err := b.stream(0).SendBatch(burst.PayloadDelta(2, []byte("via rproxy-2"))); err != nil {
		t.Fatal(err)
	}
	ev := bursttest.Events(t, st)
	deadline := time.After(5 * time.Second)
	for {
		select {
		case batch := <-ev:
			for _, d := range batch.Deltas {
				if d.Flow == burst.FlowDegraded && d.FlowDetail == burst.UpstreamLostDetail {
					t.Fatal("the POP handed the loss down although its re-route landed")
				}
				if d.Type == burst.DeltaPayload {
					if string(d.Payload) != "via rproxy-2" {
						t.Fatalf("payload %q", d.Payload)
					}
					return
				}
			}
		case <-deadline:
			t.Fatal("no delivery after the re-route")
		}
	}
}

func TestProxyCancelPropagatesUpstream(t *testing.T) {
	env := newProxyEnv(t)
	st := subscribeSticky(t, env, "brass-a")
	waitFor(t, "upstream", func() bool { return env.brassA.stream(0) != nil })
	if err := st.Cancel("scrolled away"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "upstream cancel", func() bool {
		env.brassA.mu.Lock()
		defer env.brassA.mu.Unlock()
		return len(env.brassA.cancels) == 1
	})
	env.brassA.mu.Lock()
	reason := env.brassA.cancels[0].Reason
	env.brassA.mu.Unlock()
	if reason != "scrolled away" {
		t.Errorf("reason = %q", reason)
	}
	waitFor(t, "relay GC", func() bool { return env.proxy.ActiveStreams.Value() == 0 })
}

func TestProxyDeviceDropCancelsUpstreamAndGCs(t *testing.T) {
	env := newProxyEnv(t)
	subscribeSticky(t, env, "brass-a")
	waitFor(t, "upstream", func() bool { return env.brassA.stream(0) != nil })
	env.client.Close() // device vanishes
	waitFor(t, "upstream cancelled + GC", func() bool {
		env.brassA.mu.Lock()
		cancels := len(env.brassA.cancels)
		env.brassA.mu.Unlock()
		return cancels == 1 && env.proxy.ActiveStreams.Value() == 0
	})
	if env.proxy.DownstreamDrops.Value() != 1 {
		t.Errorf("DownstreamDrops = %d", env.proxy.DownstreamDrops.Value())
	}
}

func TestProxyServerTerminationForwardedAndGCd(t *testing.T) {
	env := newProxyEnv(t)
	st := subscribeSticky(t, env, "brass-a")
	waitFor(t, "upstream", func() bool { return env.brassA.stream(0) != nil })
	if err := env.brassA.stream(0).Terminate("app says bye"); err != nil {
		t.Fatal(err)
	}
	select {
	case batch := <-bursttest.Events(t, st):
		if batch.Deltas[0].Type != burst.DeltaTermination || batch.Deltas[0].Reason != "app says bye" {
			t.Errorf("batch = %+v", batch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("termination not forwarded")
	}
	waitFor(t, "relay GC", func() bool { return env.proxy.ActiveStreams.Value() == 0 })
}

// relays returns the relays of p's open downstream streams.
func relays(p *Proxy) []*relay {
	p.mu.Lock()
	downs := make([]*burst.ServerSession, 0, len(p.downs))
	for ss := range p.downs {
		downs = append(downs, ss)
	}
	p.mu.Unlock()
	var out []*relay
	for _, ss := range downs {
		for _, down := range ss.Streams() {
			out = append(out, down.State.(*relay))
		}
	}
	return out
}

// gatedDialer dials through Dialer, except that a dial to target first
// waits for release; entered is closed when the first such dial waits.
type gatedDialer struct {
	Dialer
	target           string
	entered, release chan struct{}
	once             sync.Once
}

func (d *gatedDialer) Dial(target string) (io.ReadWriteCloser, error) {
	if target == d.target {
		d.once.Do(func() { close(d.entered) })
		<-d.release
	}
	return d.Dialer.Dial(target)
}

// endDuringRepair kills brass-a under a relayed stream, holds the proxy's
// redial to brass-b, ends the stream from downstream with end while the dial
// waits, then lets the dial through. The leg the repair opened on brass-b
// must be cancelled, and the relay collected.
func endDuringRepair(t *testing.T, end func(*proxyEnv, *burst.ClientStream)) {
	gate := &gatedDialer{target: "brass-b", entered: make(chan struct{}), release: make(chan struct{})}
	env := newProxyEnvVia(t, func(n *PipeNetwork) Dialer { gate.Dialer = n; return gate })
	st := subscribeSticky(t, env, "brass-a")
	waitFor(t, "upstream on A", func() bool { return env.brassA.stream(0) != nil })
	env.net.SetDown(true, "brass-a")
	env.brassA.killSessions()
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the repair never redialed brass-b")
	}
	end(env, st)
	waitFor(t, "the relay to learn the stream ended", func() bool { return env.proxy.ActiveStreams.Value() == 0 })
	close(gate.release)
	waitFor(t, "the repaired leg cancelled and the relay collected", func() bool {
		env.brassB.mu.Lock()
		streams, cancels := len(env.brassB.streams), len(env.brassB.cancels)
		env.brassB.mu.Unlock()
		return streams == 1 && cancels == 1 && env.proxy.ActiveStreams.Value() == 0
	})
}

// TestEndDuringFirstRouteReroute cancels a relayed stream, then closes its
// downstream session, while the relay is still re-routing from a first route
// that failed: its sticky upstream refuses dials, and the re-route's dial to
// the other upstream waits. The relay is its downstream stream's State from
// the subscribe on, with no leg yet: the cancel marks it done, the session's
// close finds nothing left, and the leg the re-route then opens is cancelled,
// with no loss handed down and no count left behind.
func TestEndDuringFirstRouteReroute(t *testing.T) {
	gate := &gatedDialer{target: "brass-b", entered: make(chan struct{}), release: make(chan struct{})}
	env := newProxyEnvVia(t, func(n *PipeNetwork) Dialer { gate.Dialer = n; return gate })
	env.net.SetDown(true, "brass-a")
	st := subscribeSticky(t, env, "brass-a")
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the re-route never dialed brass-b")
	}
	if err := st.Cancel("scrolled away"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the relay to learn the stream ended", func() bool { return env.proxy.ActiveStreams.Value() == 0 })
	env.client.Close()
	waitFor(t, "the downstream session dropped", func() bool {
		env.proxy.mu.Lock()
		defer env.proxy.mu.Unlock()
		return len(env.proxy.downs) == 0
	})
	close(gate.release)
	waitFor(t, "the re-routed leg cancelled and the relay collected", func() bool {
		env.brassB.mu.Lock()
		streams, cancels := len(env.brassB.streams), len(env.brassB.cancels)
		env.brassB.mu.Unlock()
		return streams == 1 && cancels == 1 && env.proxy.ActiveStreams.Value() == 0
	})
	p := env.proxy
	if n := env.brassA.streamCount(); n != 0 {
		t.Errorf("brass-a saw %d streams; it refused every dial", n)
	}
	if a, d := p.ActiveStreams.Value(), p.DownstreamDrops.Value(); a != 0 || d != 0 {
		t.Errorf("ActiveStreams %d, DownstreamDrops %d; want 0, 0: the cancel ended the stream before its session closed", a, d)
	}
	if r, f, s := p.Reconnects.Value(), p.RepairFailures.Value(), p.StreamsRelayed.Value(); r != 0 || f != 0 || s != 0 {
		t.Errorf("Reconnects %d, RepairFailures %d, StreamsRelayed %d; want all 0 for a stream that ended before any leg", r, f, s)
	}
}

func TestCancelDuringRepairCancelsTheRepairedLeg(t *testing.T) {
	endDuringRepair(t, func(_ *proxyEnv, st *burst.ClientStream) {
		if err := st.Cancel("scrolled away"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSessionCloseDuringRepairCancelsTheRepairedLeg(t *testing.T) {
	endDuringRepair(t, func(env *proxyEnv, _ *burst.ClientStream) { env.client.Close() })
}

func TestTwoHopChain(t *testing.T) {
	// device → POP → reverse proxy → brass.
	n := NewPipeNetwork()
	b := &upstreamServer{name: "brass-a"}
	n.Register("brass-a", b.accept)
	rp := NewProxy("rproxy-1", n, StaticRouter("brass-a"))
	n.Register("rproxy-1", rp.Accept)
	pop := NewProxy("pop-1", n, StaticRouter("rproxy-1"))
	n.Register("pop-1", pop.Accept)
	rwc, err := n.Dial("pop-1")
	if err != nil {
		t.Fatal(err)
	}
	cli := burst.NewClient("device", rwc, nil)
	defer cli.Close()

	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrTopic: "/t/2"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "brass stream", func() bool { return b.stream(0) != nil })
	if err := b.stream(0).SendBatch(burst.PayloadDelta(1, []byte("through 2 hops"))); err != nil {
		t.Fatal(err)
	}
	select {
	case batch := <-bursttest.Events(t, st):
		if string(batch.Deltas[0].Payload) != "through 2 hops" {
			t.Errorf("payload = %q", batch.Deltas[0].Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery across 2 hops")
	}
	// Rewrites traverse both hops.
	if err := b.stream(0).RewriteHeaderField("k", "v"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "device rewrite via 2 hops", func() bool {
		return st.Request().Header["k"] == "v"
	})
}

func TestPipeNetwork(t *testing.T) {
	n := NewPipeNetwork()
	if _, err := n.Dial("ghost"); err == nil {
		t.Error("dial unknown target succeeded")
	}
	accepted := 0
	n.Register("x", func(io.ReadWriteCloser) { accepted++ })
	if _, err := n.Dial("x"); err != nil || accepted != 1 {
		t.Errorf("dial: err=%v accepted=%d", err, accepted)
	}
	n.SetDown(true, "x")
	if _, err := n.Dial("x"); err == nil {
		t.Error("dial down target succeeded")
	}
	n.SetDown(false, "x")
	if _, err := n.Dial("x"); err != nil {
		t.Error("dial recovered target failed")
	}

}

// openConns reports how many established connections target has.
func openConns(n *PipeNetwork, target string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns[target])
}

// TestSetDownSeversEstablishedConns: taking a target down must kill the
// sessions already running through it, not just reject new dials.
func TestSetDownSeversEstablishedConns(t *testing.T) {
	n := NewPipeNetwork()
	var server io.ReadWriteCloser
	n.Register("x", func(rwc io.ReadWriteCloser) { server = rwc })
	client, err := n.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	if got := openConns(n, "x"); got != 1 {
		t.Fatalf("OpenConns = %d, want 1", got)
	}

	n.SetDown(true, "x")
	if _, err := client.Write([]byte("a")); err == nil {
		t.Error("write on severed client end succeeded")
	}
	if _, err := server.Read(make([]byte, 1)); err == nil {
		t.Error("read on severed server end succeeded")
	}
	if got := openConns(n, "x"); got != 0 {
		t.Errorf("OpenConns after SetDown = %d, want 0", got)
	}

	// Healing restores dialability; the old connection stays dead.
	n.SetDown(false, "x")
	c2, err := n.Dial("x")
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	if got := openConns(n, "x"); got != 1 {
		t.Errorf("OpenConns after redial = %d, want 1", got)
	}
	_ = c2.Close()
}

// TestOrderlyCloseKeepsPeerEOF: closing one end of a tracked pipe must give
// the peer an orderly EOF, exactly like an untracked net.Pipe.
func TestOrderlyCloseKeepsPeerEOF(t *testing.T) {
	n := NewPipeNetwork()
	var server io.ReadWriteCloser
	n.Register("x", func(rwc io.ReadWriteCloser) { server = rwc })
	client, err := n.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := server.Read(make([]byte, 1))
		done <- err
	}()
	_ = client.Close()
	if err := <-done; err != io.EOF {
		t.Errorf("peer read after orderly close = %v, want io.EOF", err)
	}
	// The pair unregisters once both ends are closed.
	_ = server.Close()
	if got := openConns(n, "x"); got != 0 {
		t.Errorf("OpenConns after both ends closed = %d, want 0", got)
	}
}

func TestRouters(t *testing.T) {
	sub := &burst.Subscribe{Header: burst.Header{burst.HdrTopic: "/t/1"}}

	if tgt, err := (StaticRouter("a")).Route(sub, nil); err != nil || tgt != "a" {
		t.Errorf("static: %v %v", tgt, err)
	}

	rr := NewRoundRobinRouter("a", "b")
	t1, _ := rr.Route(sub, nil)
	t2, _ := rr.Route(sub, nil)
	if t1 == t2 {
		t.Errorf("round robin returned %q twice", t1)
	}
	if tgt, err := rr.Route(sub, map[string]bool{"a": true}); err != nil || tgt != "b" {
		t.Errorf("rr avoid: %v %v", tgt, err)
	}
	if _, err := rr.Route(sub, map[string]bool{"a": true, "b": true}); err == nil {
		t.Error("rr with all avoided succeeded")
	}
	empty := NewRoundRobinRouter()
	if _, err := empty.Route(sub, nil); err == nil {
		t.Error("empty rr succeeded")
	}

	sticky := StickyRouter{Fallback: StaticRouter("fallback")}
	s := &burst.Subscribe{Header: burst.Header{burst.HdrStickyBRASS: "pinned"}}
	if tgt, _ := sticky.Route(s, nil); tgt != "pinned" {
		t.Errorf("sticky = %q", tgt)
	}
	if tgt, _ := sticky.Route(s, map[string]bool{"pinned": true}); tgt != "fallback" {
		t.Errorf("sticky avoid = %q", tgt)
	}
	if tgt, _ := sticky.Route(sub, nil); tgt != "fallback" {
		t.Errorf("sticky no header = %q", tgt)
	}
}
