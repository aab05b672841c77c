package edge

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
)

// TestRelayStreamsCostNoGoroutine: a relayed stream is bytes at each proxy,
// not a goroutine. Opening a thousand streams through POP → proxy → server
// adds exactly as many goroutines as opening ten — the sessions' read loops
// and writers are there already — and cancelling them leaves none behind.
func TestRelayStreamsCostNoGoroutine(t *testing.T) {
	few, many := relayGoroutines(t, 10), relayGoroutines(t, 1000)
	t.Logf("goroutines added by 10 relayed streams: %d, by 1000: %d", few, many)
	if few != many {
		t.Errorf("10 streams added %d goroutines and 1000 added %d: a relayed stream costs a goroutine", few, many)
	}
}

// relayGoroutines opens n streams from one device through POP → proxy →
// server over a PipeNetwork and returns how many goroutines they added. Once
// every stream is cancelled, the count must return to where it started.
func relayGoroutines(t *testing.T, n int) int {
	t.Helper()
	pn := NewPipeNetwork()
	srv := &upstreamServer{name: "brass"}
	pn.Register("brass", srv.accept)
	proxy := NewProxy("proxy", pn, StaticRouter("brass"))
	pn.Register("proxy", proxy.Accept)
	pop := NewProxy("pop", pn, StaticRouter("proxy"))
	pn.Register("pop", pop.Accept)
	rwc, err := pn.Dial("pop")
	if err != nil {
		t.Fatal(err)
	}
	cli := burst.NewClient("device", rwc, nil)
	defer func() { cli.Close(); pop.Close(); proxy.Close() }()
	open := func(i int) *burst.ClientStream {
		st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrTopic: fmt.Sprintf("/t/%d", i)}})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cancelled := func(want int) func() bool {
		return func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			return len(srv.cancels) == want && pop.ActiveRelays() == 0 && proxy.ActiveRelays() == 0
		}
	}
	// A first stream dials each hop's upstream session, which outlives it.
	warm := open(0)
	waitFor(t, "the first stream upstream", func() bool { return srv.streamCount() == 1 })
	if err := warm.Cancel(""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first stream cancelled", cancelled(1))

	start := settledGoroutines()
	streams := make([]*burst.ClientStream, n)
	for i := range streams {
		streams[i] = open(i + 1)
	}
	waitFor(t, "every stream upstream", func() bool {
		return srv.streamCount() == n+1 && pop.ActiveRelays() == n && proxy.ActiveRelays() == n
	})
	added := settledGoroutines() - start
	for _, st := range streams {
		if err := st.Cancel(""); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every stream cancelled", cancelled(n+1))
	waitFor(t, fmt.Sprintf("the goroutine count back at its start, %d", start), func() bool {
		return runtime.NumGoroutine() == start
	})
	return added
}

// settledGoroutines is runtime.NumGoroutine once it has held still for 20 ms,
// so goroutines an earlier test left exiting do not land in a difference.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for still < 20 {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// firstWriteGate holds its first Write until release, closing entered when it
// starts waiting.
type firstWriteGate struct {
	io.ReadWriteCloser
	entered, release chan struct{}
	once             sync.Once
}

func (g *firstWriteGate) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.ReadWriteCloser.Write(p)
}

// TestSessionWriterCoalesces: batches that queue on a POP's relay legs while
// the downstream session's write is in flight go out together in the next
// write — one write for 200 streams' batches — each stream's in order.
func TestSessionWriterCoalesces(t *testing.T) {
	const n = 200
	pn := NewPipeNetwork()
	srv := &upstreamServer{name: "brass"}
	pn.Register("brass", srv.accept)
	pop := NewProxy("pop", pn, StaticRouter("brass"))
	defer pop.Close()
	gate := &firstWriteGate{entered: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	defer release()
	sessions := make(chan *burst.ServerSession, 2)
	pn.Register("pop", func(rwc io.ReadWriteCloser) {
		if gate.ReadWriteCloser == nil { // the first device's session is the gated one
			gate.ReadWriteCloser, rwc = rwc, gate
		}
		sessions <- pop.AcceptSession("pop-downstream", rwc)
	})
	dial := func(name string) *burst.Client {
		rwc, err := pn.Dial("pop")
		if err != nil {
			t.Fatal(err)
		}
		cli := burst.NewClient(name, rwc, nil)
		t.Cleanup(func() { cli.Close() })
		return cli
	}
	subscribe := func(cli *burst.Client, topic string) *burst.ClientStream {
		st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrTopic: topic}})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	device := dial("device")
	down := <-sessions
	other := dial("other")
	<-sessions
	streams := make([]*burst.ClientStream, n)
	for i := range streams {
		streams[i] = subscribe(device, fmt.Sprintf("/t/%d", i))
	}
	sentinel := subscribe(other, "/sentinel")
	waitFor(t, "every stream upstream", func() bool { return srv.streamCount() == n+1 })
	ups := make(map[string]*burst.ServerStream, n+1)
	for i := 0; i <= n; i++ {
		up := srv.stream(i)
		ups[up.HeaderField(burst.HdrTopic)] = up
	}
	send := func(topic string, seq uint64, payload string) {
		t.Helper()
		if err := ups[topic].SendBatch(burst.PayloadDelta(seq, []byte(payload))); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(st *burst.ClientStream, seq uint64, payload string) {
		t.Helper()
		select {
		case b := <-bursttest.Events(t, st):
			if len(b.Deltas) != 1 || b.Deltas[0].Seq != seq || string(b.Deltas[0].Payload) != payload {
				t.Fatalf("stream %d got %+v, want seq %d %q", st.SID(), b.Deltas, seq, payload)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stream %d: seq %d %q never arrived", st.SID(), seq, payload)
		}
	}

	send("/t/0", 1, "first")
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first batch was never written")
	}
	for i := range streams {
		send(fmt.Sprintf("/t/%d", i), 2, fmt.Sprintf("batch %d", i))
	}
	// The sentinel follows the n batches on the POP's one upstream session:
	// once it is through, every one of them is queued on its leg.
	send("/sentinel", 1, "sentinel")
	expect(sentinel, 1, "sentinel")
	release()
	expect(streams[0], 1, "first")
	for i, st := range streams {
		expect(st, 2, fmt.Sprintf("batch %d", i))
	}
	// The writer counts a write once it returns, which can be after the
	// device has read it.
	waitFor(t, "the second write to be counted", func() bool { return down.Writes.Value() >= 2 })
	if w, f := down.Writes.Value(), down.Frames.Value(); w != 2 || f != n+1 {
		t.Errorf("the downstream session made %d writes of %d frames, want 2 writes of %d", w, f, n+1)
	}
}

// TestRelayFirstRepairLeavesSessionServed: a stream whose first route fails
// is repaired off the session's read loop. While the repair's dial waits,
// the read loop still serves: another stream on the same downstream session
// reaches its upstream.
func TestRelayFirstRepairLeavesSessionServed(t *testing.T) {
	gate := &gatedDialer{target: "brass-b", entered: make(chan struct{}), release: make(chan struct{})}
	env := newProxyEnvVia(t, func(n *PipeNetwork) Dialer { gate.Dialer = n; return gate })
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	t.Cleanup(release)
	c := &upstreamServer{name: "brass-c"}
	env.net.Register("brass-c", c.accept)
	env.net.SetDown("brass-a", true)

	rwc, err := env.net.Dial("pop-1")
	if err != nil {
		t.Fatal(err)
	}
	dev := burst.NewSession("device-2", rwc, burst.HandlerFuncs{})
	t.Cleanup(func() { dev.Close() })
	open := func(sid burst.StreamID, topic, sticky string) error {
		return dev.SendMsg(burst.FrameSubscribe, sid, burst.Subscribe{Header: burst.Header{
			burst.HdrTopic: topic, burst.HdrStickyBRASS: sticky}})
	}
	// brass-a is down, so the first connect fails; the repair avoids it and
	// its dial of brass-b waits at the gate.
	if err := open(1, "/t/1", "brass-a"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the repair never dialed brass-b")
	}
	// The link buffers this open, so a read loop stuck in the repair shows
	// only as a stream that never reaches brass-c.
	if err := open(2, "/t/2", "brass-c"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the second stream upstream while the repair dials", func() bool { return c.stream(0) != nil })
	release()
	waitFor(t, "the first stream repaired onto brass-b", func() bool { return env.brassB.stream(0) != nil })
	if got := env.proxy.Reconnects.Value(); got != 1 {
		t.Errorf("Reconnects = %d, want 1", got)
	}
}
