// Package device simulates client devices: phones and browsers that issue
// initial GraphQL queries to a WAS, open BURST request-streams through a
// POP, render pushed updates, and recover from connection failures by
// re-dialing and resubscribing with each stream's stored (possibly
// rewritten) request — the device side of the paper's failure axioms (§4).
package device

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"bladerunner/internal/burst"
	"bladerunner/internal/edge"
	"bladerunner/internal/faults"
	"bladerunner/internal/metrics"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/trace"
)

// ErrNotConnected is returned when subscribing while disconnected.
var ErrNotConnected = errors.New("device: not connected")

// Backend is the WAS surface a device consumes: initial reads and
// mutations. *was.Server satisfies it directly (in-process cluster); the
// multi-process deployment uses a control-protocol client (internal/ctrl),
// so a device is oblivious to whether the WAS is a function call or a
// socket away.
type Backend interface {
	QueryIn(region string, viewer socialgraph.UserID, expr string) ([]byte, error)
	MutateIn(region string, viewer socialgraph.UserID, expr string) ([]byte, error)
}

// Config parameterizes a Device.
type Config struct {
	// User is the identity streams subscribe as.
	User socialgraph.UserID
	// Region is the device's home region: its GraphQL reads are served by
	// that region's TAO tier and its mutations commit tagged with it, so
	// the region plane can replicate them outward. Empty means the primary
	// region (single-region clusters leave it unset).
	Region string
	// POPs are the edge targets the device can connect through, in
	// preference order. On failure it rotates to the next.
	POPs []string
	// Backoff is the jittered-exponential policy pacing reconnects and
	// per-stream resubscribe retries. Zero fields take the defaults
	// BackoffPolicy.Normalized fills in (Base 50 ms); jitter decorrelates
	// mass disconnects so a fleet of devices does not re-dial in lockstep.
	Backoff faults.BackoffPolicy
	// BackoffSeed seeds the backoff jitter RNG. Devices in experiments
	// use distinct seeds so their retry schedules diverge deterministically.
	BackoffSeed int64
	// Tracer, when set, stamps a stable trace-stream identity header onto
	// every subscription and closes a device.apply span per traced payload
	// delta. nil disables tracing on this device.
	Tracer *trace.Tracer
}

// Device is one simulated client.
type Device struct {
	cfg     Config
	dialer  edge.Dialer
	was     Backend
	sched   sim.Scheduler
	backoff *faults.Backoff

	mu        sync.Mutex
	client    *burst.Client
	popIdx    int
	streams   map[*Stream]bool
	closed    bool
	connected bool
	nextSalt  int64

	// Metrics.
	Updates      metrics.Counter
	Reconnects   metrics.Counter
	Polls        metrics.Counter
	Resubscribes metrics.Counter
	// Resumes counts shed gaps repaired by reopening the stream from its
	// stored request, resume tokens lowered to the stream's resume point.
	Resumes metrics.Counter
	// ResumesCoalesced counts shed markers absorbed by a resume already
	// scheduled — they did NOT become an extra resubscribe because the
	// pending one replays everything after the frozen resume point.
	ResumesCoalesced metrics.Counter
	// PeerCloses counts sessions the *edge* hung up cleanly (HandleClose
	// delivered io.EOF — e.g. a draining POP) as opposed to local closes
	// or transport failures. The reconnect path is the same either way.
	PeerCloses metrics.Counter
}

// Stream is one application-level subscription held by the device. It
// survives reconnections: the device resubscribes transparently and Next
// reads on from the new incarnation.
type Stream struct {
	dev *Device

	mu     sync.Mutex
	cur    *burst.ClientStream
	curCli *burst.Client // session the current client stream lives on
	req    burst.Subscribe
	closed bool

	// rec decides what every delta of the current incarnation (cur) means
	// for the stream and what the next resubscribe resumes from; Next steps
	// it as it hands that incarnation's deltas out.
	rec burst.Recovery

	// Next's alone: the incarnation it drains (cur, or one cur superseded)
	// and the rest of its batch. moved wakes Next waiting for the next one.
	in    *burst.ClientStream
	batch []burst.Delta
	moved chan struct{}

	// bo paces per-stream resubscribe retries; retryCancel is the pending
	// retry timer, cancelled on close or when a resubscribe supersedes it.
	bo          *faults.Backoff
	retryCancel func()
}

// New builds a device. dialer reaches POP targets; wasrv serves the initial
// queries and mutations ("HTTP" in production, a direct call in the
// in-process cluster, a ctrl client in the multi-process deployment).
func New(cfg Config, dialer edge.Dialer, wasrv Backend, sched sim.Scheduler) *Device {
	if sched == nil {
		sched = sim.RealClock{}
	}
	seed := cfg.BackoffSeed
	if seed == 0 {
		seed = int64(cfg.User) + 1
	}
	return &Device{
		cfg:     cfg,
		dialer:  dialer,
		was:     wasrv,
		sched:   sched,
		backoff: faults.NewBackoff(cfg.Backoff, seed),
		streams: make(map[*Stream]bool),
	}
}

// Connect dials the current POP and starts the session.
func (d *Device) Connect() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errors.New("device: closed")
	}
	if d.connected {
		d.mu.Unlock()
		return nil
	}
	pop := d.cfg.POPs[d.popIdx%len(d.cfg.POPs)]
	d.mu.Unlock()

	rwc, err := d.dialer.Dial(pop)
	if err != nil {
		d.mu.Lock()
		d.popIdx++ // try another POP next time
		d.mu.Unlock()
		return fmt.Errorf("device: dial %s: %w", pop, err)
	}
	// The client's read loop starts inside NewClient, and a peer that hangs
	// up at once runs onSessionLost from it: holding d.mu across the store
	// keeps that loss from being overwritten by the connected state below.
	d.mu.Lock()
	d.client = burst.NewClient(fmt.Sprintf("device-%d", d.cfg.User), rwc, func(err error) {
		if errors.Is(err, io.EOF) {
			d.PeerCloses.Inc()
		}
		d.onSessionLost()
	})
	d.connected = true
	d.mu.Unlock()
	return nil
}

// Close tears the device down; all streams close.
func (d *Device) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	cli := d.client
	streams := make([]*Stream, 0, len(d.streams))
	for st := range d.streams {
		streams = append(streams, st)
	}
	d.streams = make(map[*Stream]bool)
	d.mu.Unlock()
	if cli != nil {
		_ = cli.Close()
	}
	for _, st := range streams {
		st.end(false, "")
	}
}

// Query issues an initial GraphQL read to the WAS (step 1 of Fig 3),
// served in the device's home region.
func (d *Device) Query(expr string) ([]byte, error) {
	d.Polls.Inc()
	return d.was.QueryIn(d.cfg.Region, d.cfg.User, expr)
}

// Mutate issues a GraphQL mutation to the WAS (Fig 4). The mutation is
// tagged with the device's home region so its events publish into the
// region-local Pylon first and replicate outward.
func (d *Device) Mutate(expr string) ([]byte, error) {
	return d.was.MutateIn(d.cfg.Region, d.cfg.User, expr)
}

// Subscribe opens a request-stream for app with the given subscription
// expression and optional extra header fields.
func (d *Device) Subscribe(app, subscription string, extra burst.Header) (*Stream, error) {
	d.mu.Lock()
	if !d.connected || d.client == nil {
		d.mu.Unlock()
		return nil, ErrNotConnected
	}
	cli := d.client
	d.nextSalt++
	salt := d.nextSalt
	d.mu.Unlock()

	header := burst.Header{
		burst.HdrApp:          app,
		burst.HdrSubscription: subscription,
		burst.HdrUser:         fmt.Sprintf("%d", d.cfg.User),
	}
	if d.cfg.Tracer != nil {
		// Stable stream identity for the trace plane: rewrites patch other
		// keys and resubscription replays the stored request, so this value
		// survives every recovery path and joins pre/post-failure spans.
		header[burst.HdrTraceStream] = fmt.Sprintf("u%d/%s#%d", d.cfg.User, app, salt)
	}
	for k, v := range extra {
		header[k] = v
	}
	req, bo := burst.Subscribe{Header: header}, d.backoff.Child(salt)
	cs, err := cli.Subscribe(req)
	if err != nil {
		return nil, err
	}
	st := &Stream{dev: d, cur: cs, curCli: cli, req: req, in: cs, moved: make(chan struct{}, 1), bo: bo}
	d.mu.Lock()
	d.streams[st] = true
	d.mu.Unlock()
	return st, nil
}

// onSessionLost runs when the BURST session dies: schedule a reconnect that
// rotates POPs and resubscribes every stream with its stored request. The
// delay comes from the jittered backoff so a mass disconnect (a POP dying
// under thousands of devices) does not re-dial in lockstep.
func (d *Device) onSessionLost() {
	d.mu.Lock()
	d.connected = false
	d.client = nil
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return
	}
	d.sched.After(d.backoff.Next(), d.reconnect)
}

func (d *Device) reconnect() {
	d.mu.Lock()
	if d.closed || d.connected {
		d.mu.Unlock()
		return
	}
	d.popIdx++ // prefer an alternate POP after a failure
	d.mu.Unlock()

	if err := d.Connect(); err != nil {
		d.sched.After(d.backoff.Next(), d.reconnect)
		return
	}
	d.backoff.Reset()
	d.Reconnects.Inc()

	d.mu.Lock()
	cli := d.client
	streams := make([]*Stream, 0, len(d.streams))
	for st := range d.streams {
		streams = append(streams, st)
	}
	d.mu.Unlock()

	for _, st := range streams {
		// A successful attach — possibly to a different POP in a different
		// region after a geo-failover — starts the per-stream retry clock
		// fresh. Without this, a stream whose retries escalated against the
		// dead region carries that saturated delay into its FIRST retry on
		// the healthy one, stretching failover by up to Backoff.Cap.
		st.bo.Reset()
		// A nil client means the new session is lost already; its loss
		// scheduled the next reconnect.
		if cli != nil {
			st.resubscribe(cli)
		}
	}
}

// resubscribe reopens the stream from its stored (possibly rewritten)
// request, on a fresh session or — to repair a shed gap — on the live one.
// It is the one place a resubscribe request is built.
func (st *Stream) resubscribe(cli *burst.Client) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	// This attempt supersedes any pending per-stream retry.
	st.cancelRetryLocked()
	// Snapshot the request from the old client stream: it holds the latest
	// rewritten state even if its session is gone. The old incarnation is
	// superseded from here on, so nothing it still has queued can move the
	// resume point the request below is built from.
	old := st.cur
	if old != nil {
		st.req = old.Request()
		st.cur = nil
	}
	// The server rewrote the resume tokens forward as it pushed, but what
	// admission shed or a dead session swallowed never arrived: lower both
	// to what this device actually has.
	st.rec.Reopen(&st.req)
	// A copy: another resubscribe may lower st.req again while this one is
	// still being sent.
	req := burst.Subscribe{Header: st.req.Header.Clone(), Body: st.req.Body}
	st.mu.Unlock()
	// Next reads the old incarnation to its end before it moves on.
	if old != nil {
		_ = old.Cancel("superseded")
	}

	cs, err := cli.Subscribe(req)
	if err != nil {
		// The session may still be alive (transient send failure) — do
		// not wait for the next session loss; schedule a per-stream
		// retry so the stream cannot strand.
		st.scheduleResubscribe()
		return
	}
	st.dev.Resubscribes.Inc()
	st.bo.Reset()
	st.mu.Lock()
	prev := st.cur // a concurrent resubscribe stored its incarnation first
	st.cur, st.curCli = cs, cli
	st.mu.Unlock()
	if prev != nil {
		_ = prev.Cancel("superseded")
	}
	st.wake()
}

// wake tells a reader waiting for the next incarnation to look again.
func (st *Stream) wake() {
	select {
	case st.moved <- struct{}{}:
	default: // a token is pending already: the reader looks again anyway
	}
}

// scheduleResubscribe arms a per-stream retry through the device backoff.
// The retry fires only while the device holds a live session; if the
// session is down, the session-level reconnect path owns recovery.
func (st *Stream) scheduleResubscribe() {
	d := st.dev
	delay := st.bo.Next()
	st.mu.Lock()
	if st.closed || st.retryCancel != nil {
		st.mu.Unlock()
		return
	}
	st.retryCancel = d.sched.After(delay, func() {
		st.mu.Lock()
		st.retryCancel = nil
		st.mu.Unlock()
		d.mu.Lock()
		cli := d.client
		ok := d.connected && !d.closed && cli != nil
		d.mu.Unlock()
		if !ok {
			return // session down: reconnect will resubscribe every stream
		}
		st.mu.Lock()
		already := st.curCli == cli && st.cur != nil
		st.mu.Unlock()
		if already {
			return // a session-level resubscribe beat the retry to it
		}
		st.resubscribe(cli)
	})
	st.mu.Unlock()
}

// cancelRetryLocked stops any pending per-stream retry timer. Callers hold
// st.mu.
func (st *Stream) cancelRetryLocked() {
	if st.retryCancel != nil {
		st.retryCancel()
		st.retryCancel = nil
	}
}

// Next returns the stream's next payload or flow_status delta in arrival
// order, waiting for one, and reports false once the stream has ended. It is
// the app's one read, on the app's goroutine, and recovery runs as it reads:
// each delta of the current incarnation steps Recovery, so a shed marker
// freezes the resume point at what the app has and reopens the stream.
// Rewrites never reach it (the client stream folds them into its request).
// What a superseded incarnation still has queued reaches the app as payload
// only, and the reopen's FlowRecovered is handed out when Next moves on to
// the new incarnation, behind it all. A payload aliases a leased batch that is
// never released: the garbage collector takes it with the last delta.
func (st *Stream) Next() (burst.Delta, bool) {
	for {
		for len(st.batch) == 0 {
			rc, ok := st.in.Next()
			if ok {
				st.batch = rc.Deltas
			} else if st.advance() {
				return burst.FlowStatusDelta(burst.FlowRecovered, "resubscribed"), true
			} else {
				return burst.Delta{}, false
			}
		}
		d := st.batch[0]
		st.batch = st.batch[1:]
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			return burst.Delta{}, false
		}
		act := burst.Ignore
		if st.cur == st.in {
			act = st.rec.Step(&d, st.in)
		} else if d.Type == burst.DeltaPayload {
			act = burst.Apply
		}
		switch act {
		case burst.Apply:
			st.dev.Updates.Inc()
			sp := st.dev.cfg.Tracer.Start(d.Trace, trace.HopApply, trace.HopFlush)
			sp.AnnotateInt("seq", int64(d.Seq))
			if sp.Active() {
				sp.Annotate("stream", st.req.Header[burst.HdrTraceStream])
			}
			sp.End()
		case burst.Reopen:
			st.scheduleResume()
		case burst.Coalesce:
			st.dev.ResumesCoalesced.Inc()
		}
		st.mu.Unlock()
		if act == burst.End {
			st.end(false, "")
			return burst.Delta{}, false
		}
		if act != burst.Ignore {
			return d, true
		}
	}
}

// advance moves the reader on from an incarnation it drained to its end to
// the one a resubscribe stored, waiting for it if need be. It reports false
// once the stream has closed.
func (st *Stream) advance() bool {
	for {
		st.mu.Lock()
		closed, cur := st.closed, st.cur
		st.mu.Unlock()
		if closed {
			return false
		}
		if cur != nil && cur != st.in {
			st.in = cur
			return true
		}
		<-st.moved
	}
}

// scheduleResume repairs a shed gap: off the reader's goroutine, cancel the
// current client stream and resubscribe with the stored request, which the
// serving BRASS answers with everything after the frozen resume point.
func (st *Stream) scheduleResume() {
	d := st.dev
	d.sched.After(0, func() {
		st.mu.Lock()
		closed := st.closed
		cur := st.cur
		st.mu.Unlock()
		if closed {
			return
		}
		d.mu.Lock()
		cli := d.client
		ok := d.connected && !d.closed && cli != nil
		d.mu.Unlock()
		if !ok {
			// Session down: the reconnect path resubscribes every stream
			// from the same stored request and the same resume point.
			return
		}
		if cur != nil {
			_ = cur.Cancel("shed-resume")
		}
		d.Resumes.Inc()
		st.resubscribe(cli)
	})
}

// HeaderField returns one header key of the current stored request.
func (st *Stream) HeaderField(key string) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cur != nil {
		return st.cur.HeaderField(key)
	}
	return st.req.Header[key]
}

// Request returns the stream's current stored request, including any
// rewrites the serving BRASS has applied.
func (st *Stream) Request() burst.Subscribe {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cur != nil {
		return st.cur.Request()
	}
	return st.req
}

// end closes the stream, once: the device's own Cancel also cancels the live
// client stream upstream; a server termination (burst.End) and device
// teardown have nobody left to tell.
func (st *Stream) end(upstream bool, reason string) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	cur := st.cur
	st.cancelRetryLocked()
	st.mu.Unlock()
	if upstream && cur != nil {
		_ = cur.Cancel(reason)
	}
	d := st.dev
	d.mu.Lock()
	delete(d.streams, st)
	d.mu.Unlock()
	st.wake()
}
