package brass

import (
	"errors"
	"slices"
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
// anywhere because the underlying BURST stream serializes sends.
type Stream struct {
	burst *burst.ServerStream
	inst  *Instance

	// Viewer is the subscribing user (parsed from the stream header).
	Viewer socialgraph.UserID

	// topics lists the Pylon topics this stream holds references to, in the
	// order it added them. It starts on topic1, so the common one-topic
	// stream allocates nothing for it.
	topics []pylon.Topic
	topic1 [1]pylon.Topic

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

// newStream returns inst's stream for bst, its topic list on its own array.
func newStream(bst *burst.ServerStream, inst *Instance) *Stream {
	st := &Stream{burst: bst, inst: inst}
	st.topics = st.topic1[:0]
	return st
}

// SID returns the BURST stream id.
func (st *Stream) SID() burst.StreamID { return st.burst.SID() }

// Request returns the stream's current subscription request.
func (st *Stream) Request() burst.Subscribe { return st.burst.Request() }

// Header returns a specific header field of the current request.
func (st *Stream) Header(key string) string { return st.burst.HeaderField(key) }

// AddTopic subscribes the stream to a Pylon topic. The first local
// reference triggers instance→host→Pylon registration. Loop-only.
func (st *Stream) AddTopic(topic pylon.Topic) error { return st.inst.addTopicRef(topic, st) }

// DropTopic removes the stream's interest in topic. Loop-only.
func (st *Stream) DropTopic(topic pylon.Topic) { st.inst.dropTopicRef(topic, st) }

// Topics returns the stream's current topics, in the order it added them.
// Loop-only.
func (st *Stream) Topics() []pylon.Topic { return slices.Clone(st.topics) }

// Push sends the deltas of one application decision — a payload, a payload
// and the state rewrite that goes with it, several ranked payloads — to the
// device as one atomic batch: one frame, applied all-or-nothing. When
// per-stream admission is enabled (HostConfig.StreamDeliverRate), an
// over-rate batch has its payload deltas shed — control deltas always go
// through — and the device is told via FlowDegraded with a shed marker so it
// can reopen the stream from its resume point.
func (st *Stream) Push(deltas ...burst.Delta) error { return st.send(deltas, true) }

// send is the one road from an application decision to the session writer,
// and it holds no buffer: per-stream admission unless the caller bypasses
// it, one burst.flush span keyed on the first traced delta, one SendBatch,
// one delivery counted per payload delta sent. An empty batch — nothing
// passed, or everything shed — writes no frame.
func (st *Stream) send(deltas []burst.Delta, admit bool) error {
	if admit {
		admitted, shed := st.admitPayloads(deltas)
		if shed > 0 {
			sp := st.startFlushSpan(firstTrace(deltas), len(deltas))
			sp.Drop("stream-admission")
			sp.End()
		}
		deltas = admitted
	}
	if len(deltas) == 0 {
		return nil
	}
	sp := st.startFlushSpan(firstTrace(deltas), len(deltas))
	defer sp.End()
	if err := st.burst.SendBatch(deltas...); err != nil {
		sp.Annotate("error", "send-failed")
		return err
	}
	st.inst.host.Deliveries.Add(int64(payloadCount(deltas)))
	return nil
}

// payloadCount returns how many of deltas are payload deltas — what
// admission meters and Deliveries counts; control deltas are neither.
func payloadCount(deltas []burst.Delta) int {
	n := 0
	for _, d := range deltas {
		if d.Type == burst.DeltaPayload {
			n++
		}
	}
	return n
}

// admitPayloads runs the per-stream delivery bucket over one batch. A
// batch with no payload deltas passes untouched (control is never rate
// limited). On a denied batch every payload delta is shed and the stream
// enters the degraded state: exactly one FlowDegraded with a shed marker
// is emitted, and the bucket state is persisted to HdrAdmissionState so a
// failover replacement resumes the same admission state (the paper's
// rewrite mechanism, §3.5). The first admitted batch afterwards emits
// FlowRecovered. Returns the surviving deltas and the shed count.
func (st *Stream) admitPayloads(deltas []burst.Delta) ([]burst.Delta, int) {
	h := st.inst.host
	if h.cfg.StreamDeliverRate <= 0 {
		return deltas, 0
	}
	payloads := payloadCount(deltas)
	if payloads == 0 {
		return deltas, 0
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
		return deltas, 0
	}
	kept := make([]burst.Delta, 0, len(deltas)-payloads)
	for _, d := range deltas {
		if d.Type != burst.DeltaPayload {
			kept = append(kept, d)
		}
	}
	h.StreamSheds.Add(int64(payloads))
	if transition == entered {
		st.announce(burst.FlowDegraded, "stream-admission")
		_ = st.burst.RewriteHeaderField(HdrAdmissionState, state)
	}
	return kept, payloads
}

// PushCatchUp sends the deltas an application replays at stream open — from
// the durable log or from its backend — as one atomic batch, BYPASSING
// per-stream admission. Catch-up is not live fan-out: the deltas were
// already admitted (and possibly shed) once when they were first delivered,
// and the whole point of a resume is to close the gap — running the replay
// through the admission bucket again would shed it, emit a fresh marker, and
// trap the stream in a shed→resume→shed livelock. The batch is bounded by
// what the device is missing, so the bypass cannot be abused for sustained
// over-rate delivery.
func (st *Stream) PushCatchUp(deltas ...burst.Delta) error { return st.send(deltas, false) }

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

// firstTrace returns the trace context of the first sampled delta in the
// batch (a batch carries the deltas of one application decision, so one
// trace context describes it).
func firstTrace(deltas []burst.Delta) trace.ID {
	for _, d := range deltas {
		if d.Trace != 0 {
			return d.Trace
		}
	}
	return 0
}

// PayloadFor builds the payload delta that delivers ev: it carries the
// event's trace context onto the wire, so the flush, the proxies and the
// device attribute the delta to the mutation that produced it. A push no
// event caused (a timer-driven summary) passes the zero Event.
func PayloadFor(ev pylon.Event, seq uint64, payload []byte) burst.Delta {
	d := burst.PayloadDelta(seq, payload)
	d.Trace = ev.Trace
	return d
}

// PushPayload is shorthand for Push of the single payload delta of ev.
func (st *Stream) PushPayload(ev pylon.Event, seq uint64, payload []byte) error {
	return st.Push(PayloadFor(ev, seq, payload))
}

// Filtered records that the application decided not to deliver an update
// to this stream (the complement of Push in the decision accounting).
func (st *Stream) Filtered() { st.inst.host.Filtered.Inc() }

// Rewrite patches the stream's stored subscription request (paper §3.5):
// resume tokens, rate-limiter state, redirect targets. The keys of h are set
// at every hop and every other key is kept.
func (st *Stream) Rewrite(h burst.Header, body []byte) error { return st.burst.Rewrite(h, body) }

// RewriteHeaderField patches one header key.
func (st *Stream) RewriteHeaderField(key, value string) error {
	return st.burst.RewriteHeaderField(key, value)
}

// Terminate ends the stream from the BRASS side and runs the close
// sequence.
func (st *Stream) Terminate(reason string) error {
	err := st.burst.Terminate(reason)
	st.inst.closeStream(st, reason)
	return err
}

// FetchPayload asks the WAS for the device-facing payload of ev, running
// the privacy check as this stream's viewer (step 8 of Fig 5). The TAO
// read is shared host-wide across the streams fanning out the same event
// (see payload.go); the returned bytes must not be mutated.
func (st *Stream) FetchPayload(ev pylon.Event) ([]byte, error) {
	return st.inst.host.fetchPayload(st.inst.app.Name(), st.Viewer, ev)
}

// Runtime is the capability surface handed to application instances. Apps
// never touch TAO or the social graph directly — every backend interaction
// goes through the WAS, exactly as in production.
type Runtime struct {
	host *Host
	inst *Instance
}

// HostID returns the hosting machine's id.
func (rt *Runtime) HostID() string { return rt.host.cfg.ID }

// Region returns the hosting machine's region.
func (rt *Runtime) Region() string { return rt.host.cfg.Region }

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

// LogEnabled reports whether the host's durable log is configured AND
// opted in for this instance's application. Apps must check it before the
// other Log* accessors; with it false they read their backend instead.
func (rt *Runtime) LogEnabled() bool {
	return rt.host.dlog != nil && rt.host.dlogApps[rt.inst.app.Name()]
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
	if rt.host.dlog == nil || !rt.host.dlogApps[rt.inst.app.Name()] {
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
