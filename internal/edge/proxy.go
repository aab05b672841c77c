package edge

import (
	"errors"
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
	relays    map[*relay]bool
	downs     map[*burst.ServerSession]bool
	closed    bool

	// Metrics.
	StreamsRelayed  metrics.Counter
	ActiveStreams   metrics.Gauge
	Reconnects      metrics.Counter // proxy-induced stream reconnects (Fig 10)
	RepairFailures  metrics.Counter
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
		relays:    make(map[*relay]bool),
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

// ActiveRelays returns the number of live relayed streams.
func (p *Proxy) ActiveRelays() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.relays)
}

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
// (Client.OpenLeg) at open and at every repair. It has no goroutine
// of its own: its upstream leg's batches reach it on down's session writer
// (Forward), and only a repair, which waits on dials, runs on one until it
// has a new leg. Its first leg lives inside it, so a relayed stream is one
// object; a repair opens each leg afresh.
type relay struct {
	p     *Proxy
	down  *burst.ServerStream
	first burst.ClientStream

	mu     sync.Mutex
	up     *burst.ClientStream
	target string
	done   bool
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
	r.p.mu.Lock()
	delete(r.p.relays, r)
	r.p.mu.Unlock()
	r.p.ActiveStreams.Add(-1)
	return true
}

func (r *relay) isDone() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

// connect routes and subscribes down's current request upstream on st, a leg
// never opened, which queues what it receives until it is handed to down's writer.
func (r *relay) connect(avoid map[string]bool, st *burst.ClientStream) error {
	target, err := r.p.router.Route(r.down, avoid)
	if err != nil {
		return err
	}
	// Record the routing choice before dialing so a failed attempt is
	// avoidable on the next repair pass (a sticky upstream in a dead
	// region would otherwise be retried forever).
	r.mu.Lock()
	r.target = target
	r.mu.Unlock()
	u, err := r.p.upstreamFor(target)
	if err != nil {
		return fmt.Errorf("dial %s: %w", target, err)
	}
	if err := u.client.OpenLeg(st, r.down); err != nil {
		return fmt.Errorf("subscribe via %s: %w", target, err)
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
		return errRelayDone
	}
	return nil
}

// errRelayDone is connect's answer for a stream that ended while it ran.
var errRelayDone = errors.New("edge: stream ended")

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
			if d.Flow == burst.FlowDegraded && d.FlowDetail == burst.SessionClosedDetail {
				// Synthesized by our upstream client: the transport died,
				// and this is the leg's last batch. Not forwarded: the
				// repair sends its own flow status.
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
		go r.repairOff(nil)
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

// repairOff repairs the stream on a goroutine of its own, because a repair
// waits on dials (axiom 2: the component downstream from a failure that is
// closest to it re-establishes connectivity). The request is down's. With
// cause nil the leg has died: downstream hears of it (axiom 1), and down has
// merged every rewrite the writer forwarded from the dead leg. Otherwise cause
// failed the first route — e.g. a sticky upstream in a dead region, or a
// cross-region link that just went down — and down still holds the opening
// request: the stream should land on ANY healthy upstream, which is what
// makes cross-region failover of resubscribed streams work at all.
func (r *relay) repairOff(cause error) {
	reason := "stream unrecoverable: upstream gone"
	if cause == nil {
		_ = r.down.SendBatch(burst.FlowStatusDelta(burst.FlowDegraded,
			"upstream "+r.targetName()+" lost"))
	} else {
		reason = fmt.Sprintf("no upstream: %v", cause)
	}
	if !r.repair() {
		if r.setDone() {
			r.p.RepairFailures.Inc()
			_ = r.down.Terminate(reason)
		}
		return
	}
	r.p.Reconnects.Inc()
	if cause == nil {
		_ = r.down.SendBatch(burst.FlowStatusDelta(burst.FlowRerouted,
			"stream re-established via "+r.targetName()))
	} else {
		r.p.StreamsRelayed.Inc()
	}
	r.leg().Forward(r.down, r)
}

// maxRepairAttempts bounds reconnection attempts per failure before the
// proxy gives up and terminates the stream downstream.
const maxRepairAttempts = 3

// repair re-routes and re-subscribes the stream with down's stored request.
// Failed targets accumulate into the avoid set so successive attempts fan
// out across the healthy fleet (a sticky target in a dead region must not
// be retried on every pass); the final attempt widens to every target
// again, in case an avoided one has recovered.
func (r *relay) repair() bool {
	avoid := map[string]bool{r.targetName(): true}
	for attempt := 0; attempt < maxRepairAttempts; attempt++ {
		if r.isDone() {
			return false
		}
		if err := r.connect(avoid, new(burst.ClientStream)); err == nil {
			return true
		}
		if attempt == maxRepairAttempts-2 {
			avoid = nil // last attempt: the avoided targets may have recovered
			continue
		}
		if t := r.targetName(); t != "" {
			if avoid == nil {
				avoid = make(map[string]bool)
			}
			avoid[t] = true
		}
	}
	return false
}

type proxyHandler struct {
	p    *Proxy
	sess func() *burst.ServerSession
}

func (h proxyHandler) OnSubscribe(down *burst.ServerStream) {
	p := h.p
	r := &relay{p: p, down: down}
	down.State = r
	p.mu.Lock()
	p.relays[r] = true
	p.mu.Unlock()
	p.ActiveStreams.Add(1)
	if err := r.connect(nil, &r.first); err != nil {
		// This read loop serves every other stream of the session: the
		// repair waits on dials elsewhere.
		go r.repairOff(err)
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
