package edge

import (
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
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
	onSubscribe func(*upstreamServer, *burst.ServerStream, burst.Subscribe)

	mu       sync.Mutex
	streams  []*burst.ServerStream
	cancels  []burst.Cancel
	acks     []burst.Ack
	sessions []*burst.ServerSession
}

func (u *upstreamServer) accept(rwc io.ReadWriteCloser) {
	var ss *burst.ServerSession
	ss = burst.NewServerSession(u.name, rwc, burst.ServerHandlerFuncs{
		Subscribe: func(st *burst.ServerStream, sub burst.Subscribe) {
			u.mu.Lock()
			u.streams = append(u.streams, st)
			u.mu.Unlock()
			if u.onSubscribe != nil {
				u.onSubscribe(u, st, sub)
			}
		},
		Cancel: func(st *burst.ServerStream, c burst.Cancel) {
			u.mu.Lock()
			u.cancels = append(u.cancels, c)
			u.mu.Unlock()
		},
		Ack: func(st *burst.ServerStream, a burst.Ack) {
			u.mu.Lock()
			u.acks = append(u.acks, a)
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
	if env.proxy.StreamsRelayed.Value() != 1 || env.proxy.ActiveRelays() != 1 {
		t.Errorf("relayed=%d active=%d", env.proxy.StreamsRelayed.Value(), env.proxy.ActiveRelays())
	}
}

func TestProxyRelaysRewritesAndTracksState(t *testing.T) {
	env := newProxyEnv(t)
	st := subscribeSticky(t, env, "brass-a")
	waitFor(t, "upstream stream", func() bool { return env.brassA.stream(0) != nil })
	if err := env.brassA.stream(0).RewriteHeaderField("resume-seq", "41"); err != nil {
		t.Fatal(err)
	}
	// The device's stored request gets the rewrite through the proxy.
	waitFor(t, "device rewrite", func() bool {
		return st.Request().Header["resume-seq"] == "41"
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
	env := newProxyEnv(t)
	st := subscribeSticky(t, env, "brass-a")
	waitFor(t, "upstream on A", func() bool { return env.brassA.stream(0) != nil })

	// BRASS patches three different keys; the repair must carry all three
	// and every key of the original subscribe.
	for _, kv := range [][2]string{{"resume-seq", "7"}, {"cursor", "1.7"}, {"rl-state", "bucket=3"}} {
		if err := env.brassA.stream(0).RewriteHeaderField(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "rewrites", func() bool { return st.HeaderField("rl-state") == "bucket=3" })

	// Kill brass-a: its sessions die and the target becomes undialable.
	env.net.SetDown("brass-a", true)
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
		"resume-seq": "7", "cursor": "1.7", "rl-state": "bucket=3",
	}
	if got := env.brassB.stream(0).Request().Header; !reflect.DeepEqual(got, want) {
		t.Errorf("repair carried %+v, want the merged state %+v", got, want)
	}
	if env.proxy.Reconnects.Value() != 1 {
		t.Errorf("Reconnects = %d", env.proxy.Reconnects.Value())
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

func TestProxyTerminatesWhenRepairImpossible(t *testing.T) {
	n := NewPipeNetwork()
	a := &upstreamServer{name: "brass-a"}
	n.Register("brass-a", a.accept)
	p := NewProxy("pop-1", n, StaticRouter("brass-a"))
	p.MaxRepairAttempts = 2
	n.Register("pop-1", p.Accept)
	rwc, _ := n.Dial("pop-1")
	cli := burst.NewClient("device", rwc, nil)
	defer cli.Close()
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrTopic: "/t"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "upstream", func() bool { return a.stream(0) != nil })
	n.SetDown("brass-a", true)
	a.killSessions()

	sawTermination := false
	ev := bursttest.Events(t, st)
	deadline := time.After(5 * time.Second)
	for !sawTermination {
		select {
		case batch, ok := <-ev:
			if !ok {
				t.Fatal("stream closed without termination delta")
			}
			for _, d := range batch.Deltas {
				if d.Type == burst.DeltaTermination {
					sawTermination = true
					if !strings.Contains(d.Reason, "unrecoverable") {
						t.Errorf("reason = %q", d.Reason)
					}
				}
			}
		case <-deadline:
			t.Fatal("no termination")
		}
	}
	if p.RepairFailures.Value() != 1 {
		t.Errorf("RepairFailures = %d", p.RepairFailures.Value())
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
	waitFor(t, "relay GC", func() bool { return env.proxy.ActiveRelays() == 0 })
}

func TestProxyAckPropagatesUpstream(t *testing.T) {
	env := newProxyEnv(t)
	st := subscribeSticky(t, env, "brass-a")
	waitFor(t, "upstream", func() bool { return env.brassA.stream(0) != nil })
	if err := st.Ack(23); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ack", func() bool {
		env.brassA.mu.Lock()
		defer env.brassA.mu.Unlock()
		return len(env.brassA.acks) == 1 && env.brassA.acks[0].Seq == 23
	})
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
		return cancels == 1 && env.proxy.ActiveRelays() == 0
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
	waitFor(t, "relay GC", func() bool { return env.proxy.ActiveRelays() == 0 })
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
	env.net.SetDown("brass-a", true)
	env.brassA.killSessions()
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the repair never redialed brass-b")
	}
	end(env, st)
	waitFor(t, "the relay to learn the stream ended", func() bool {
		env.proxy.mu.Lock()
		relays := make([]*relay, 0, len(env.proxy.relays))
		for r := range env.proxy.relays {
			relays = append(relays, r)
		}
		env.proxy.mu.Unlock()
		for _, r := range relays {
			if !r.isDone() {
				return false
			}
		}
		return true
	})
	close(gate.release)
	waitFor(t, "the repaired leg cancelled and the relay collected", func() bool {
		env.brassB.mu.Lock()
		streams, cancels := len(env.brassB.streams), len(env.brassB.cancels)
		env.brassB.mu.Unlock()
		return streams == 1 && cancels == 1 && env.proxy.ActiveRelays() == 0
	})
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
	if n.DialCount("x") != 1 {
		t.Errorf("DialCount = %d", n.DialCount("x"))
	}
	n.SetDown("x", true)
	if _, err := n.Dial("x"); err == nil {
		t.Error("dial down target succeeded")
	}
	n.SetDown("x", false)
	if _, err := n.Dial("x"); err != nil {
		t.Error("dial recovered target failed")
	}
	n.Unregister("x")
	if _, err := n.Dial("x"); err == nil {
		t.Error("dial unregistered target succeeded")
	}
	if got := len(n.Targets()); got != 0 {
		t.Errorf("Targets = %d", got)
	}
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
	if got := n.OpenConns("x"); got != 1 {
		t.Fatalf("OpenConns = %d, want 1", got)
	}

	n.SetDown("x", true)
	if _, err := client.Write([]byte("a")); err == nil {
		t.Error("write on severed client end succeeded")
	}
	if _, err := server.Read(make([]byte, 1)); err == nil {
		t.Error("read on severed server end succeeded")
	}
	if got := n.OpenConns("x"); got != 0 {
		t.Errorf("OpenConns after SetDown = %d, want 0", got)
	}

	// Healing restores dialability; the old connection stays dead.
	n.SetDown("x", false)
	c2, err := n.Dial("x")
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	if got := n.OpenConns("x"); got != 1 {
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
	if got := n.OpenConns("x"); got != 0 {
		t.Errorf("OpenConns after both ends closed = %d, want 0", got)
	}
}

func TestRouters(t *testing.T) {
	sub := burst.Subscribe{Header: burst.Header{burst.HdrTopic: "/t/1"}}

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
	s := burst.Subscribe{Header: burst.Header{burst.HdrStickyBRASS: "pinned"}}
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

func TestRoundRobinSetTargets(t *testing.T) {
	rr := NewRoundRobinRouter("a")
	rr.SetTargets("x", "y")
	seen := map[string]bool{}
	sub := burst.Subscribe{}
	for i := 0; i < 4; i++ {
		tgt, err := rr.Route(sub, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[tgt] = true
	}
	if !seen["x"] || !seen["y"] || seen["a"] {
		t.Errorf("seen = %v", seen)
	}
}
