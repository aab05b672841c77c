package edge

import (
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
)

// A rewrite_request is a patch (DESIGN.md §7e): every holder of a stored
// request — the serving stream, each relay (the stream it serves downstream;
// its upstream leg keeps none) and the device — owns its copy and merges
// patches into it in place. These tests hold the three things that design
// must not lose: the copies agree, nobody shares a map, repair replays the
// merged state.

// chain is device → pop-1 → rproxy-1 → brass-a | brass-b.
type chain struct {
	net            *PipeNetwork
	brassA, brassB *upstreamServer
	rproxy, pop    *Proxy
	gate           *sync.Mutex        // held = the device has stopped reading
	link           io.ReadWriteCloser // the device's end of its POP connection
	client         *burst.Client
}

// gatedConn is the device's end of its POP connection with a stoppable
// reader: a device that does not read lets the link fill (linkFull), then
// blocks the POP's session writer in its downstream write, and the POP's
// upstream client stream fills and sheds.
type gatedConn struct {
	io.ReadWriteCloser
	gate *sync.Mutex
}

func (g gatedConn) Read(p []byte) (int, error) {
	g.gate.Lock() // a barrier, not a critical section
	g.gate.Unlock()
	return g.ReadWriteCloser.Read(p)
}

func newChain(t *testing.T, subscribe func(*upstreamServer, *burst.ServerStream)) *chain {
	t.Helper()
	c := &chain{
		net:    NewPipeNetwork(),
		brassA: &upstreamServer{name: "brass-a", onSubscribe: subscribe},
		brassB: &upstreamServer{name: "brass-b", onSubscribe: subscribe},
		gate:   new(sync.Mutex),
	}
	c.net.Register("brass-a", c.brassA.accept)
	c.net.Register("brass-b", c.brassB.accept)
	c.rproxy = NewProxy("rproxy-1", c.net, StickyRouter{Fallback: NewRoundRobinRouter("brass-a", "brass-b")})
	c.net.Register("rproxy-1", c.rproxy.Accept)
	c.pop = NewProxy("pop-1", c.net, StaticRouter("rproxy-1"))
	c.net.Register("pop-1", c.pop.Accept)
	rwc, err := c.net.Dial("pop-1")
	if err != nil {
		t.Fatal(err)
	}
	c.link = rwc
	c.client = burst.NewClient("device", gatedConn{rwc, c.gate}, nil)
	t.Cleanup(func() { c.client.Close(); c.pop.Close(); c.rproxy.Close() })
	return c
}

// linkFull reports whether the POP's link to the device holds PipeBuffer
// unread bytes: the POP's session writer is stuck in its write, as over a TCP
// socket whose reader stopped.
func (c *chain) linkFull() bool {
	d := c.link.(pipeEnd).Conn.(*pipeConn).rx
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.buf)-d.off == PipeBuffer
}

// holders returns a reader for every copy of the one stream's stored
// request along the chain, named for failure messages.
func (c *chain) holders(server *burst.ServerStream, device *burst.ClientStream) map[string]func() burst.Subscribe {
	out := map[string]func() burst.Subscribe{"device": device.Request}
	if server != nil {
		out["server"] = server.Request
	}
	for _, p := range []*Proxy{c.rproxy, c.pop} {
		for _, r := range relays(p) {
			out[p.name] = r.down.Request
		}
	}
	return out
}

// upstreamClient returns p's client session to target.
func (c *chain) upstreamClient(p *Proxy, target string) *burst.Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.upstreams[target].client
}

// waitConverged waits until all four copies of the stored request equal want.
func (c *chain) waitConverged(t *testing.T, server *burst.ServerStream, device *burst.ClientStream, want burst.Subscribe) {
	t.Helper()
	converged := func() bool {
		hs := c.holders(server, device)
		for _, read := range hs {
			if !reflect.DeepEqual(read(), want) {
				return false
			}
		}
		return len(hs) == 4
	}
	for deadline := time.Now().Add(5 * time.Second); !converged(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			for name, read := range c.holders(server, device) {
				t.Logf("%-19s holds %+v", name, read())
			}
			t.Fatalf("holders did not converge on %+v", want)
		}
	}
}

func TestRewritePatchesFoldAtEveryHop(t *testing.T) {
	c := newChain(t, nil)
	want := burst.Subscribe{
		Header: burst.Header{burst.HdrApp: "messenger", burst.HdrUser: "7", burst.HdrStickyBRASS: "brass-a", "lang": "en"},
		Body:   []byte("body-0"),
	}
	st, err := c.client.Subscribe(burst.Subscribe{Header: want.Header.Clone(), Body: want.Body})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, ok := st.Next(); ok; _, ok = st.Next() {
		}
	}()
	waitFor(t, "upstream stream", func() bool { return c.brassA.stream(0) != nil })
	ss := c.brassA.stream(0)

	keys := []string{burst.HdrClientVersion, burst.HdrCursor, burst.HdrStickyBRASS, "rl-state", "admission-state", ""}
	rng := rand.New(rand.NewSource(18))
	seq := uint64(0)
	step := func(i int) {
		v := strconv.Itoa(i)
		patch := burst.Header{keys[rng.Intn(len(keys))]: v}
		if rng.Intn(3) == 0 { // multi-key
			patch[keys[rng.Intn(len(keys))]] = v + "b"
			patch[keys[rng.Intn(len(keys))]] = v + "c"
		}
		var body []byte
		if rng.Intn(8) == 0 {
			body = []byte("body-" + v)
		}
		seq++
		payload := burst.PayloadDelta(seq, []byte(v))
		var err error
		switch rng.Intn(6) {
		case 0:
			patch, body = nil, nil
			err = ss.SendBatch(payload)
		case 1:
			k := keys[rng.Intn(len(keys))]
			patch, body = burst.Header{k: v}, nil
			err = ss.RewriteHeaderField(k, v)
		case 2:
			err = ss.Rewrite(patch, body)
		case 3: // one decision, one batch: payload, patch, and an empty patch (a no-op)
			err = ss.SendBatch(payload, burst.RewriteDelta(patch, body), burst.RewriteDelta(burst.Header{}, nil))
		case 4: // body only
			patch = nil
			err = ss.Rewrite(nil, body)
		default:
			err = ss.SendBatch(payload, burst.RewriteDelta(patch, body))
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want.Header.Merge(patch)
		if body != nil {
			want.Body = body
		}
	}

	for i := 0; i < 300; i++ {
		step(i)
	}
	c.waitConverged(t, ss, st, want)

	// The device stops reading: once the link is full the POP's relay blocks,
	// its upstream client stream overflows and sheds payloads, and must keep
	// every rewrite in its slot — a patch applied out of order or lost leaves
	// a stale key behind for good, since no later rewrite re-asserts it.
	c.gate.Lock()
	i := 300
	for ; !c.linkFull(); i++ {
		step(i)
	}
	// The POP's relay is stuck in its downstream write, so this rewrite
	// waits in the POP's upstream queue while the batches around it lose
	// their payloads, and nothing ever re-asserts its key: it reaches the
	// device only if the queue keeps it.
	probe := strconv.Itoa(i)
	if err := ss.RewriteHeaderField("queued-probe", probe); err != nil {
		t.Fatal(err)
	}
	want.Header["queued-probe"] = probe
	for end := i + 790; i < end; i++ {
		step(i)
	}
	// Mostly the POP's leg sheds; on a busy box the reverse proxy's may too.
	legs := []*burst.Client{c.upstreamClient(c.pop, "rproxy-1"), c.upstreamClient(c.rproxy, "brass-a")}
	waitFor(t, "a shed on a relay leg", func() bool { return legs[0].Dropped.Value()+legs[1].Dropped.Value() > 0 })
	c.gate.Unlock()
	c.waitConverged(t, ss, st, want)
	waitFor(t, "the POP to relay every rewrite the reverse proxy did", func() bool {
		return c.pop.RewritesRelayed.Value() == c.rproxy.RewritesRelayed.Value()
	})

	// A relay holds one request: its downstream stream's, merged into the map
	// it decoded (its subscribe handler only borrowed it). The upstream leg,
	// which that handler opened with it, keeps none.
	for _, p := range []*Proxy{c.rproxy, c.pop} {
		for _, r := range relays(p) {
			r.mu.Lock()
			if req := r.up.Request(); len(req.Header) != 0 || req.Body != nil {
				t.Errorf("%s: the upstream leg stores a request: %+v", p.name, req)
			}
			r.mu.Unlock()
		}
	}
}

// A stalled device overflows its POP's upstream leg with Messenger's shape of
// traffic: payload batches between batches that patch the cursor. The
// leg may shed payloads only. Every control delta reaches the device in the
// order the server sent it, and the device's fold ends equal to the server's.
// Each shed episode is announced in order: its FlowDegraded marker arrives
// before any payload is missing, and its FlowRecovered after.
func TestOverflowedRelayLegKeepsControlInOrder(t *testing.T) {
	c := newChain(t, nil)
	st, err := c.client.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp: "messenger", burst.HdrStickyBRASS: "brass-a", burst.HdrCursor: "1.0"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "upstream stream", func() bool { return c.brassA.stream(0) != nil })
	ss := c.brassA.stream(0)
	legs := []*burst.Client{c.upstreamClient(c.pop, "rproxy-1"), c.upstreamClient(c.rproxy, "brass-a")}
	ev := bursttest.Events(t, st)

	const overflow = 1200 // several times a leg's bound
	// Batch i is payload (i+1)/2 if i is odd; if it is even, a control batch
	// sent after payload i/2: a rewrite and the flow status "ctl i".
	send := func(i int) {
		v := strconv.Itoa(i)
		var err error
		if i%2 == 1 {
			err = ss.SendBatch(burst.PayloadDelta(uint64(i+1)/2, []byte(v)))
		} else {
			err = ss.SendBatch(burst.RewriteDelta(burst.Header{burst.HdrCursor: "1." + v}, nil),
				burst.FlowStatusDelta(burst.FlowRecovered, "ctl "+v))
		}
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	// The link fills first, and only then can a leg overflow. The flood ends
	// on a control batch, so the last batch sent is one too.
	c.gate.Lock()
	i := 1
	for ; !c.linkFull() || i%2 == 0; i++ {
		send(i)
	}
	batches := i - 1 + overflow
	for ; i <= batches; i++ {
		send(i)
	}
	// Mostly the POP's leg sheds; on a busy box the reverse proxy's may too.
	waitFor(t, "a shed on a relay leg", func() bool { return legs[0].Dropped.Value()+legs[1].Dropped.Value() > 0 })
	c.gate.Unlock()

	// Every missing payload lies in a leg's shed episode, which closes
	// (bursttest.GapRule); control arrives in the order sent, and after the
	// payload sent before it.
	rule := bursttest.NewGapRule(t)
	last := 0
	for deadline := time.After(5 * time.Second); last < batches || rule.Open(); {
		select {
		case rc, ok := <-ev:
			if !ok {
				t.Fatalf("stream ended after ctl %d", last)
			}
			for _, d := range rc.Deltas {
				switch {
				case d.Type == burst.DeltaPayload:
					rule.Payload(d.Seq)
				case strings.HasPrefix(d.FlowDetail, "ctl "):
					if n, _ := strconv.Atoi(strings.TrimPrefix(d.FlowDetail, "ctl ")); n != last+2 {
						t.Fatalf("control arrived out of order: %q after ctl %d", d.FlowDetail, last)
					}
					if last += 2; rule.Last() > uint64(last/2) {
						t.Fatalf("payload %d arrived before ctl %d, which was sent ahead of it", rule.Last(), last)
					}
					rule.SentAfter(uint64(last / 2))
				case d.Type == burst.DeltaFlowStatus:
					rule.Flow(d.FlowDetail)
				}
			}
		case <-deadline:
			rule.Close()
			t.Fatalf("the device saw control up to ctl %d of %d", last, batches)
		}
	}
	if rule.Episodes() == 0 {
		t.Error("the relay legs shed without announcing it")
	}
	waitFor(t, "the device's fold to equal the server's", func() bool {
		return reflect.DeepEqual(st.Request(), ss.Request())
	})
}

// TestRewriteOwnershipUnderRace runs rewrites on the server against reads of
// every holder's copy while the reverse proxy repairs the stream onto a second
// server that is rewriting too. Run under -race it fails if any two holders
// share a map: a relay's downstream stream merges under its own lock into the
// map it decoded (which its subscribe handler only borrowed), and the repair
// resubscribes with a copy of it.
func TestRewriteOwnershipUnderRace(t *testing.T) {
	const rewrites = 300
	var wg sync.WaitGroup
	defer wg.Wait()
	c := newChain(t, func(u *upstreamServer, ss *burst.ServerStream) {
		if ss.HeaderField(burst.HdrTraceStream) != "dev/1" {
			t.Errorf("%s was handed %v", u.name, ss.Request().Header)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rewrites; i++ {
				k := [...]string{burst.HdrClientVersion, burst.HdrCursor, burst.HdrApp}[i%3]
				if ss.RewriteHeaderField(k, u.name+"-"+strconv.Itoa(i)) != nil {
					return // this server was killed
				}
			}
		}()
	})
	st, err := c.client.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp: "0", burst.HdrStickyBRASS: "brass-a", burst.HdrTraceStream: "dev/1"}})
	if err != nil {
		t.Fatal(err)
	}
	ev := bursttest.Events(t, st)
	stop := make(chan struct{})
	defer close(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-ev:
			default:
			}
			for _, read := range c.holders(c.brassA.stream(0), st) {
				_ = read().Header[burst.HdrCursor]
			}
			if up := c.brassB.stream(0); up != nil {
				_ = up.HeaderField(burst.HdrClientVersion)
			}
			_ = st.HeaderField(burst.HdrClientVersion)
		}
	}()

	waitFor(t, "rewrites from brass-a", func() bool { return st.HeaderField(burst.HdrClientVersion) != "" })
	c.net.SetDown(true, "brass-a") // repair in flight while both ends keep going
	waitFor(t, "repair onto brass-b", func() bool { return c.brassB.stream(0) != nil })
	last := "brass-b-" + strconv.Itoa(rewrites)
	waitFor(t, "brass-b's last rewrite at the device", func() bool { return st.HeaderField(burst.HdrClientVersion) == last })
	if got := st.HeaderField(burst.HdrTraceStream); got != "dev/1" {
		t.Errorf("a key no patch carried changed: trace-stream = %q", got)
	}
}
