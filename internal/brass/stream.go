package brass

import (
	"errors"
	"sync"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/durlog"
	"bladerunner/internal/overload"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/trace"
)

// HdrAdmissionState is the BURST header field carrying the per-stream
// delivery token bucket's persisted state. Like HdrRateLimiterState it is
// rewritten into the subscription so a failover replacement stream resumes
// admission where the old one left off (restores are clamped to "now" —
// see overload.TokenBucket.RestoreHeaderState).
const HdrAdmissionState = "admission-state"

// Stream is one device request-stream as seen by application code. All
// methods that mutate stream state must be called from the instance's event
// loop (i.e. from application callbacks); Push and Rewrite are safe
// anywhere because the underlying BURST stream serializes sends. It holds
// that stream, so a stream is one object at the BRASS hop.
type Stream struct {
	burst burst.ServerStream
	inst  *Instance

	// Viewer is the subscribing user (parsed from the stream header).
	Viewer socialgraph.UserID

	// topics lists the Pylon topics this stream holds references to, in the
	// order it added them. It starts on topic1, so the common one-topic
	// stream allocates nothing for it.
	topics []pylon.Topic
	topic1 [1]pylon.Topic
	self   [1]*Stream // alone's array: this stream, set before it is shared

	// State is free space for per-stream application state (ranked
	// buffers, rate limiters, sequence cursors...). Loop-owned.
	State any

	// admit is the per-stream delivery token bucket (zero Rate = disabled;
	// configured from HostConfig.StreamDeliverRate and restored from
	// HdrAdmissionState on subscribe). admitMu guards it plus degraded,
	// because Push is callable off the loop.
	admitMu  sync.Mutex
	admit    overload.TokenBucket
	degraded bool
}

// newStream returns a stream for a subscribe to decode into, its topic list
// on its own array and its BURST stream's State leading back to it. Its
// instance is set once the subscribe names one.
func newStream() *Stream {
	st := new(Stream)
	st.burst.State = st
	st.topics = st.topic1[:0]
	st.self[0] = st
	return st
}

func (st *Stream) alone() []*Stream { return st.self[:] }

// Header returns a specific header field of the current request.
func (st *Stream) Header(key string) string { return st.burst.HeaderField(key) }

// AddTopic subscribes the stream to a Pylon topic. The first local
// reference triggers instance→host→Pylon registration. Loop-only.
func (st *Stream) AddTopic(topic pylon.Topic) error { return st.inst.addTopicRef(topic, st) }

// Payload is an update the stream's viewer may see: the only thing Push and
// PushCatchUp send, and only this package makes one, in three ways. Fetch
// privacy-checks an event as the viewer (step 8 of Fig 5); Own takes rows
// the viewer read themself; Reencode and Derive build new bytes from a
// Payload one of those two made, which stays their proof. The zero Payload
// proves nothing, and send refuses it.
type Payload struct {
	b     []byte
	seq   uint64
	trace trace.ID
	ok    bool
}

// errUncleared is send's answer to a Payload no privacy check made.
var errUncleared = errors.New("brass: push of a payload no privacy check cleared")

// Bytes returns the cleared bytes. They may be shared with other streams
// through the payload cache: read them, never write them.
func (p Payload) Bytes() []byte { return p.b }

// Reencode is the same delivery in new bytes b — seq and trace kept — for
// an application that rewrites what it fetched (a notification's badge).
func (p Payload) Reencode(b []byte) Payload { p.b = b; return p }

// Derive is a new update built from what p cleared — a tray diff, a status
// batch, an aggregate — with seq 0 and no trace: no single event caused it.
func (p Payload) Derive(b []byte) Payload { return Payload{b: b, ok: p.ok} }

// Fetch asks the WAS for the device-facing payload of ev as this stream's
// viewer: the privacy check, then the TAO read, which the instance shares
// across the streams fanning out the same event (payload.go). The Payload
// carries seq and ev's trace context onto the wire, so the flush, the
// proxies and the device attribute it to the mutation that produced it. A
// denial or a failed read is counted Filtered and answers false.
func (st *Stream) Fetch(ev pylon.Event, seq uint64) (Payload, bool) {
	b, err := st.inst.fetchPayload(st.Viewer, ev)
	if err != nil {
		st.Filtered()
		return Payload{}, false
	}
	return Payload{b: b, seq: seq, trace: ev.Trace, ok: true}, true
}

// Own makes the Payload of a row read as the viewer, with no event to
// check: a WAS query run as the viewer, whose resolver skipped what they
// may not see (Messenger's mailbox), or a durable-log entry appended from
// such a row or from a Fetch on the viewer's own topic (its replay).
func (st *Stream) Own(seq uint64, b []byte) Payload {
	return Payload{b: b, seq: seq, ok: true}
}

// Push sends one application decision — its payloads in order, then at most
// one header patch (nil for none) — to the device as one atomic batch: one
// frame, applied all-or-nothing. When per-stream admission is enabled
// (HostConfig.StreamDeliverRate), an over-rate batch has its payloads shed —
// the patch always goes through — and the device is told via FlowDegraded
// with a shed marker so it can reopen the stream from its resume point.
func (st *Stream) Push(patch burst.Header, ps ...Payload) error { return st.send(patch, ps, true) }

// send is the one road from an application decision to the session writer,
// and it holds no buffer: the deltas on a stack array, per-stream admission
// unless the caller bypasses it, one burst.flush span keyed on the first
// traced payload, one SendBatch, one delivery counted per payload sent. An
// empty batch — nothing passed, or everything shed — writes no frame; a
// batch with a zero Payload in it writes none either and fails.
func (st *Stream) send(patch burst.Header, ps []Payload, admit bool) error {
	var buf [2]burst.Delta
	deltas := buf[:0]
	var id trace.ID
	for _, p := range ps {
		if !p.ok {
			return errUncleared
		}
		if id == 0 {
			id = p.trace
		}
		deltas = append(deltas, burst.Delta{Type: burst.DeltaPayload, Seq: p.seq, Payload: p.b, Trace: p.trace})
	}
	if len(patch) > 0 {
		deltas = append(deltas, burst.RewriteDelta(patch, nil))
	}
	sent := len(ps)
	if admit && sent > 0 && !st.admitPayloads(sent) {
		sp := st.startFlushSpan(id, len(deltas))
		sp.Drop("stream-admission")
		sp.End()
		deltas, sent, id = deltas[sent:], 0, 0
	}
	if len(deltas) == 0 {
		return nil
	}
	sp := st.startFlushSpan(id, len(deltas))
	defer sp.End()
	if err := st.burst.SendBatch(deltas...); err != nil {
		sp.Annotate("error", "send-failed")
		return err
	}
	st.inst.host.Deliveries.Add(int64(sent))
	return nil
}

// admitPayloads runs the per-stream delivery bucket over one batch of n
// payloads (control is never rate limited). On a denied batch every payload
// is shed and the stream enters the degraded state: exactly one
// FlowDegraded with a shed marker is emitted, and the bucket state is
// persisted to HdrAdmissionState so a failover replacement resumes the same
// admission state (the paper's rewrite mechanism, §3.5). The first admitted
// batch afterwards emits FlowRecovered. Reports whether the batch passed.
func (st *Stream) admitPayloads(n int) bool {
	h := st.inst.host
	if h.cfg.StreamDeliverRate <= 0 {
		return true
	}
	const none, entered, recovered = 0, 1, 2
	st.admitMu.Lock()
	ok := st.admit.Allow(h.sched.Now())
	transition := none
	switch {
	case !ok && !st.degraded:
		st.degraded = true
		transition = entered
	case ok && st.degraded:
		st.degraded = false
		transition = recovered
	}
	state := st.admit.HeaderState()
	st.admitMu.Unlock()
	if ok {
		if transition == recovered {
			// Recovery notice first, so the device knows the shed gap
			// ended before the next payload lands.
			st.announce(burst.FlowRecovered, "stream-admission")
			_ = st.burst.RewriteHeaderField(HdrAdmissionState, state)
		}
		return true
	}
	h.StreamSheds.Add(int64(n))
	if transition == entered {
		st.announce(burst.FlowDegraded, "stream-admission")
		_ = st.burst.RewriteHeaderField(HdrAdmissionState, state)
	}
	return false
}

// PushCatchUp sends the payloads an application replays at stream open —
// from the durable log or from its backend — and their resume patch as one
// atomic batch, BYPASSING per-stream admission. Catch-up is not live
// fan-out: the payloads were already admitted (and possibly shed) once when
// they were first delivered,
// and the whole point of a resume is to close the gap — running the replay
// through the admission bucket again would shed it, emit a fresh marker, and
// trap the stream in a shed→resume→shed livelock. The batch is bounded by
// what the device is missing, so the bypass cannot be abused for sustained
// over-rate delivery.
func (st *Stream) PushCatchUp(patch burst.Header, ps ...Payload) error {
	return st.send(patch, ps, false)
}

// announce tells the device that a shed episode on this stream began
// (FlowDegraded) or ended (FlowRecovered) at source. The detail carries the
// shed marker, so the device knows deltas may have been dropped and reopens
// the stream from its resume point (DESIGN.md §7c). It is a control delta,
// never shed; a send error means the stream is already gone.
func (st *Stream) announce(code burst.FlowCode, source string) {
	prefix := overload.ShedMarkerPrefix
	if code == burst.FlowRecovered {
		prefix = overload.RecoveredMarkerPrefix
	}
	_ = st.burst.SendBatch(burst.FlowStatusDelta(code, prefix+source))
	st.inst.host.FlowSignals.Inc()
}

// startFlushSpan opens the burst.flush span covering the frame encode +
// send of one traced batch (inactive when untraced or no tracer is set).
func (st *Stream) startFlushSpan(id trace.ID, deltas int) trace.Span {
	sp := st.inst.host.cfg.Tracer.Start(id, trace.HopFlush, trace.HopFetch)
	if sp.Active() {
		sp.Annotate("host", st.inst.host.cfg.ID)
		sp.Annotate("stream", st.Header(burst.HdrTraceStream))
		sp.AnnotateInt("deltas", int64(deltas))
	}
	return sp
}

// Filtered records that the application decided not to deliver an update
// to this stream (the complement of Push in the decision accounting). Fetch
// counts its own denials.
func (st *Stream) Filtered() { st.inst.host.Filtered.Inc() }

// Rewrite patches the stream's stored subscription request (paper §3.5):
// resume tokens, rate-limiter state, redirect targets. The keys of h are set
// at every hop and every other key is kept.
func (st *Stream) Rewrite(h burst.Header, body []byte) error { return st.burst.Rewrite(h, body) }

// Runtime is the capability surface handed to application instances. Apps
// never touch TAO or the social graph directly — every backend interaction
// goes through the WAS, exactly as in production.
type Runtime struct {
	host *Host
	inst *Instance
}

// Instance returns the runtime's instance for stream/topic queries.
func (rt *Runtime) Instance() *Instance { return rt.inst }

// Now returns the current time from the host's clock (real or simulated).
func (rt *Runtime) Now() time.Time { return rt.host.sched.Now() }

// After schedules fn on the instance event loop after d.
func (rt *Runtime) After(d time.Duration, fn func()) (cancel func()) {
	return rt.inst.After(d, fn)
}

// ResolveSubscription asks the WAS to translate a subscription expression
// into concrete Pylon topics (step 5 of Fig 3).
func (rt *Runtime) ResolveSubscription(viewer socialgraph.UserID, expr string) ([]pylon.Topic, error) {
	return rt.host.was.ResolveSubscription(viewer, expr)
}

// Query issues a read query to the WAS as viewer (used by apps that need
// backend state, e.g. Messenger's mailbox catch-up reads). The query runs
// in the host's region so payload-style reads hit the region-local TAO
// tier; queries that must be authoritative read the leader explicitly.
func (rt *Runtime) Query(viewer socialgraph.UserID, expr string) ([]byte, error) {
	rt.host.WASFetches.Inc()
	return rt.host.was.QueryIn(rt.host.cfg.Region, viewer, expr)
}

// LogEnabled reports whether the host's durable log is configured. An
// application opts in by calling the Log* accessors; with LogEnabled false
// they are no-ops and the application reads its backend instead.
func (rt *Runtime) LogEnabled() bool {
	return rt.host.dlog != nil
}

// LogOpen ensures a durable-log topic exists (idempotent; no-op when the
// log is disabled for this app).
func (rt *Runtime) LogOpen(topic pylon.Topic) {
	if rt.LogEnabled() {
		rt.host.dlog.Open(string(topic))
	}
}

// LogAppend records one delivered delta in the durable log (no-op when
// disabled). It runs on the app's per-event delivery path.
//
//brlint:hotpath
func (rt *Runtime) LogAppend(topic pylon.Topic, seq uint64, payload []byte) bool {
	if rt.host.dlog == nil {
		return false
	}
	return rt.host.dlog.Append(string(topic), seq, payload)
}

// LogRead serves a cursor catch-up read: the gap-free suffix after c, or
// durlog.ErrCursorExpired when the log cannot prove continuity (the app
// then reads its backend instead — the log NEVER fabricates a cursor).
func (rt *Runtime) LogRead(topic pylon.Topic, c durlog.Cursor) ([]durlog.Entry, durlog.Cursor, error) {
	if !rt.LogEnabled() {
		return nil, durlog.Cursor{}, durlog.ErrUnknownTopic
	}
	out, next, err := rt.host.dlog.ReadFrom(string(topic), c)
	switch {
	case err == nil:
		rt.host.LogResumes.Inc()
		rt.host.LogCatchUpDeltas.Add(int64(len(out)))
	case errors.Is(err, durlog.ErrCursorExpired):
		rt.host.LogExpired.Inc()
	}
	return out, next, err
}

// LogTail returns the current live cursor for topic (what a client that
// wants "live only, no backlog" should start from).
func (rt *Runtime) LogTail(topic pylon.Topic) (durlog.Cursor, bool) {
	if !rt.LogEnabled() {
		return durlog.Cursor{}, false
	}
	return rt.host.dlog.TailCursor(string(topic))
}

// LogEarliest returns the cursor from which the entire retained window can
// be replayed (late joiners reading the full backlog).
func (rt *Runtime) LogEarliest(topic pylon.Topic) (durlog.Cursor, bool) {
	if !rt.LogEnabled() {
		return durlog.Cursor{}, false
	}
	return rt.host.dlog.EarliestCursor(string(topic))
}
