package edge

import (
	"fmt"
	"io"
	"sync"

	"bladerunner/internal/burst"
	"bladerunner/internal/metrics"
	"bladerunner/internal/overload"
	"bladerunner/internal/trace"
)

// Proxy is a stream-level BURST relay. POPs and datacenter reverse proxies
// are both Proxies; they differ only in name, dialer, and router. Streams
// are relayed independently: each downstream request-stream maps to one
// upstream request-stream. The relay holds one copy of the stream's current
// subscription request, its downstream server stream's, which every rewrite
// it forwards patches; the upstream client stream keeps none. That copy is
// what a repair resubscribes with.
type Proxy struct {
	name   string
	dialer Dialer
	router Router

	mu        sync.Mutex
	upstreams map[string]*upstream
	downs     map[*burst.ServerSession]bool
	closed    bool

	// Metrics.
	StreamsRelayed  metrics.Counter
	ActiveStreams   metrics.Gauge
	Reconnects      metrics.Counter // proxy-induced stream reconnects (Fig 10)
	RepairFailures  metrics.Counter // losses handed down as the upstream-lost marker
	RewritesRelayed metrics.Counter
	DownstreamDrops metrics.Counter
	// ShedNotices counts shed-marker flow deltas this proxy relayed —
	// upstream hops telling devices that deltas were dropped and the stream
	// must be reopened. Edge visibility into degraded mode per POP.
	ShedNotices metrics.Counter

	// Tracer, when set, closes an edge.relay span per traced batch this
	// proxy forwards. nil disables tracing on the relay path.
	Tracer *trace.Tracer
}

type upstream struct {
	target string
	client *burst.Client
}

// NewProxy builds a proxy that routes with router and connects with dialer.
func NewProxy(name string, dialer Dialer, router Router) *Proxy {
	return &Proxy{
		name:      name,
		dialer:    dialer,
		router:    router,
		upstreams: make(map[string]*upstream),
		downs:     make(map[*burst.ServerSession]bool),
	}
}

// Name returns the proxy's diagnostic name.
func (p *Proxy) Name() string { return p.name }

// AcceptSession attaches a downstream BURST transport (a device or a
// downstream proxy).
func (p *Proxy) AcceptSession(name string, rwc io.ReadWriteCloser) *burst.ServerSession {
	var ss *burst.ServerSession
	ss = burst.NewServerSession(name, rwc, proxyHandler{p: p, sess: func() *burst.ServerSession { return ss }})
	p.mu.Lock()
	p.downs[ss] = true
	p.mu.Unlock()
	return ss
}

// Accept is the io-only form used with PipeNetwork.Register.
func (p *Proxy) Accept(rwc io.ReadWriteCloser) { p.AcceptSession(p.name+"-downstream", rwc) }

// Close simulates the proxy machine dying: every session it terminates —
// upstream and downstream — is severed, so neighbours detect the failure
// and run their own recovery (devices reconnect to another POP; POPs
// re-route streams to another proxy).
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	ups := make([]*upstream, 0, len(p.upstreams))
	for _, u := range p.upstreams {
		ups = append(ups, u)
	}
	p.upstreams = make(map[string]*upstream)
	downs := make([]*burst.ServerSession, 0, len(p.downs))
	for ss := range p.downs {
		downs = append(downs, ss)
	}
	p.downs = make(map[*burst.ServerSession]bool)
	p.mu.Unlock()
	for _, u := range ups {
		_ = u.client.Close()
	}
	for _, ss := range downs {
		_ = ss.Close()
	}
}

// upstreamFor returns (dialing if necessary) the shared client session to
// target.
func (p *Proxy) upstreamFor(target string) (*upstream, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("edge: proxy %s closed", p.name)
	}
	if u, ok := p.upstreams[target]; ok {
		p.mu.Unlock()
		return u, nil
	}
	p.mu.Unlock()

	rwc, err := p.dialer.Dial(target)
	if err != nil {
		return nil, err
	}
	u := &upstream{target: target}
	u.client = burst.NewClient(fmt.Sprintf("%s->%s", p.name, target), rwc, func(error) {
		// Upstream session died — clean peer close (io.EOF, e.g. a
		// draining BRASS) and transport failure take the same path on
		// purpose: drop it from the pool so the next subscribe
		// re-dials. Individual relays learn from their streams' queues
		// and repair themselves.
		p.mu.Lock()
		if p.upstreams[target] == u {
			delete(p.upstreams, target)
		}
		p.mu.Unlock()
	})
	u.client.Relay = true

	p.mu.Lock()
	if existing, ok := p.upstreams[target]; ok {
		// Lost a race; use the winner and drop ours.
		p.mu.Unlock()
		_ = u.client.Close()
		return existing, nil
	}
	p.upstreams[target] = u
	p.mu.Unlock()
	return u, nil
}

// relay is the per-stream state machine. It keeps no copy of the stored
// request: down, which merges every rewrite the relay forwards, IS the repair
// state, routed on (HeaderField) and encoded upstream from its pairs
// (Client.OpenLeg) at open and at its re-route. It has no goroutine
// of its own: its upstream leg's batches reach it on down's session writer
// (Forward), and only the re-route, which waits on dials, runs on one until
// it has a new leg. Its downstream stream and its first leg live inside it,
// so a relayed stream is one object; the re-route opens its leg afresh.
type relay struct {
	p     *Proxy
	down  burst.ServerStream
	first burst.ClientStream

	mu       sync.Mutex
	up       *burst.ClientStream
	target   string
	rerouted bool // the one re-route is spent: the next loss is handed down
	done     bool
}

// setDone is the relay's one done transition, which also takes it off the
// proxy's books; it reports whether this call made it.
func (r *relay) setDone() bool {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return false
	}
	r.done = true
	r.mu.Unlock()
	r.p.ActiveStreams.Add(-1)
	return true
}

func (r *relay) isDone() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

// connect routes and subscribes down's current request upstream on st, a leg
// never opened, which queues what it receives until it is handed to down's
// writer. It reports whether st is now the relay's leg.
func (r *relay) connect(avoid map[string]bool, st *burst.ClientStream) bool {
	target, err := r.p.router.Route(&r.down, avoid)
	if err != nil {
		return false
	}
	// Record the routing choice before dialing so the re-route avoids a
	// failed attempt (a sticky upstream in a dead region would otherwise be
	// picked again).
	r.mu.Lock()
	r.target = target
	r.mu.Unlock()
	u, err := r.p.upstreamFor(target)
	if err != nil || u.client.OpenLeg(st, &r.down) != nil {
		return false
	}
	r.mu.Lock()
	done := r.done
	if !done {
		r.up = st
	}
	r.mu.Unlock()
	if done {
		// The stream ended downstream while this leg was being opened, and
		// the cancel went to the leg before it: nothing would forward or
		// cancel this one.
		_ = st.Cancel("stream ended during repair")
	}
	return !done
}

// leg returns the current upstream leg.
func (r *relay) leg() *burst.ClientStream {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.up
}

func (r *relay) targetName() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.target
}

// Forward is the relay's turn on one batch of its upstream leg, on down's
// session writer (burst.Forwarder). The batch is this relay's alone (a lease
// from the upstream client), so it is filtered in place, sent down and
// released.
func (r *relay) Forward(rc *burst.Received) {
	batch := rc.Deltas
	sp := r.startRelaySpan(batch)
	terminated, lost := false, false
	rewrites := 0
	n := 0
	for i := range batch {
		d := &batch[i]
		switch d.Type {
		case burst.DeltaFlowStatus:
			if d.Flow == burst.FlowDegraded && d.FlowDetail == burst.UpstreamLostDetail {
				// The leg's upstream is gone: our upstream client
				// synthesised this when the transport died, or the relay
				// above could not re-route. Either way it is the leg's last
				// batch, and not forwarded: the re-route sends its own flow
				// status, or hands this marker down itself.
				lost = true
				continue
			}
			if overload.IsShedMarker(d.FlowDetail) {
				r.p.ShedNotices.Inc()
			}
		case burst.DeltaRewriteRequest:
			// SendBatch merges it into down's request; pass it
			// along so the device updates its copy too.
			r.p.RewritesRelayed.Inc()
			rewrites++
		case burst.DeltaTermination:
			terminated = true
		}
		if n != i {
			batch[n] = *d
		}
		n++
	}
	forward := batch[:n]
	if rewrites > 0 {
		sp.AnnotateInt("rewrites", int64(rewrites))
	}
	if len(forward) > 0 {
		if err := r.down.SendBatch(forward...); err != nil {
			// Downstream is gone: cancel upstream and stop. A cancel that
			// already marked the relay done may have gone to an earlier
			// leg, so this one is cancelled regardless.
			sp.Annotate("drop", "downstream-lost")
			sp.End()
			rc.Release()
			r.setDone()
			_ = r.leg().Cancel("downstream lost")
			return
		}
	}
	rc.Release() // SendBatch merged rewrites by copy and encoded: nothing aliases it now
	sp.End()
	if terminated {
		r.setDone()
	}
	if lost && !r.isDone() {
		go r.reroute(true)
	}
}

// startRelaySpan opens the edge.relay span for one forwarded batch,
// keying on the first traced delta (inactive when the batch carries no
// trace context or the proxy has no tracer).
func (r *relay) startRelaySpan(batch []burst.Delta) trace.Span {
	tr := r.p.Tracer
	if tr == nil {
		return trace.Span{}
	}
	var id trace.ID
	for _, d := range batch {
		if d.Trace != 0 {
			id = d.Trace
			break
		}
	}
	sp := tr.Start(id, trace.HopRelay, trace.HopFlush)
	if sp.Active() {
		sp.Annotate("proxy", r.p.name)
		sp.Annotate("upstream", r.targetName())
		sp.Annotate("stream", r.down.HeaderField(burst.HdrTraceStream))
		sp.AnnotateInt("deltas", int64(len(batch)))
	}
	return sp
}

// reroute repairs the stream on a goroutine of its own, because it waits on
// a dial (axiom 2: the component downstream from a failure that is closest to
// it re-establishes connectivity). The request is down's. With legLost the
// leg was lost — its transport died, or the relay above handed the
// upstream-lost marker down on a session that still lives — and downstream
// hears of it (axiom 1); down has merged every rewrite the writer forwarded
// from the lost leg. Otherwise the first route failed, e.g. a sticky upstream
// in a dead region, and down still holds the opening request.
//
// A relay re-routes once in its life, avoiding the target that just failed.
// When that fails, or its leg is lost in turn, the relay hands the loss down:
// it sends the upstream-lost marker, cancels its leg and is done. The hop
// below repairs from its own stored request — a relay re-routes, a device
// reopens under its backoff, with no avoid set — so a relay never ends a
// stream and never retries on a clock of its own.
func (r *relay) reroute(legLost bool) {
	r.mu.Lock()
	failed, spent := r.target, r.rerouted
	r.rerouted = true
	r.mu.Unlock()
	if up := r.leg(); up != nil {
		_ = up.Cancel("upstream lost")
	}
	if !spent && !r.isDone() {
		if legLost {
			_ = r.down.SendBatch(burst.FlowStatusDelta(burst.FlowDegraded, "upstream "+failed+" lost"))
		}
		if r.connect(map[string]bool{failed: true}, new(burst.ClientStream)) {
			r.p.Reconnects.Inc()
			if legLost {
				_ = r.down.SendBatch(burst.FlowStatusDelta(burst.FlowRerouted,
					"stream re-established via "+r.targetName()))
			} else {
				r.p.StreamsRelayed.Inc()
			}
			r.leg().Forward(&r.down, r)
			return
		}
	}
	if r.setDone() {
		r.p.RepairFailures.Inc()
		_ = r.down.SendBatch(burst.FlowStatusDelta(burst.FlowDegraded, burst.UpstreamLostDetail))
	}
}

type proxyHandler struct {
	p    *Proxy
	sess func() *burst.ServerSession
}

// NewStream is a new relay's downstream stream: the subscribe decodes into
// the relay itself.
func (h proxyHandler) NewStream() *burst.ServerStream {
	r := &relay{p: h.p}
	r.down.State = r
	return &r.down
}

func (h proxyHandler) OnSubscribe(down *burst.ServerStream) {
	p := h.p
	r := down.State.(*relay)
	p.ActiveStreams.Add(1)
	if !r.connect(nil, &r.first) {
		// This read loop serves every other stream of the session: the
		// re-route waits on its dial elsewhere.
		go r.reroute(false)
		return
	}
	p.StreamsRelayed.Inc()
	r.leg().Forward(down, r)
}

// OnCancel passes the borrowed reason upstream: Cancel encodes it before it
// returns.
func (h proxyHandler) OnCancel(down *burst.ServerStream, c burst.Cancel) {
	if r, ok := down.State.(*relay); ok {
		if r.setDone() {
			r.mu.Lock()
			up := r.up
			r.mu.Unlock()
			if up != nil {
				_ = up.Cancel(c.Reason)
			}
		}
	}
}

func (h proxyHandler) OnSessionClose(streams []*burst.ServerStream, err error) {
	// The downstream connection died (device vanished, or the downstream
	// proxy failed). Cancel the upstream leg of each affected stream and
	// GC the state (paper: proxies garbage collect stream state when the
	// connection to the device fails).
	if h.sess != nil {
		if ss := h.sess(); ss != nil {
			h.p.mu.Lock()
			delete(h.p.downs, ss)
			h.p.mu.Unlock()
		}
	}
	h.p.DownstreamDrops.Add(int64(len(streams)))
	for _, down := range streams {
		if r, ok := down.State.(*relay); ok {
			if r.setDone() {
				r.mu.Lock()
				up := r.up
				r.mu.Unlock()
				if up != nil {
					_ = up.Cancel("downstream connection lost")
				}
			}
		}
	}
}
