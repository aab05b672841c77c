package brass

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strconv"
	"sync"

	"bladerunner/internal/burst"
	"bladerunner/internal/durlog"
	"bladerunner/internal/faults"
	"bladerunner/internal/metrics"
	"bladerunner/internal/overload"
	"bladerunner/internal/pylon"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/trace"
	"bladerunner/internal/was"
)

// ErrUnknownApp is returned when a stream names an unregistered application.
var ErrUnknownApp = errors.New("brass: unknown application")

// HostConfig parameterizes a BRASS host.
type HostConfig struct {
	// ID is the host's identity with Pylon and in sticky-routing headers.
	ID string
	// Region labels the host's datacenter region.
	Region string
	// Tracer, when set, closes brass.deliver / brass.fetch / burst.flush
	// spans for sampled events on this host. nil disables tracing.
	Tracer *trace.Tracer
	// LoopQueueDepth bounds each instance's event-loop queue: a saturated
	// loop sheds its oldest Data-class task (event deliveries) and signals
	// FlowDegraded to the instance's streams. <= 0 takes the default
	// (taskBuffer).
	LoopQueueDepth int
	// StreamDeliverRate, when > 0, enables a per-stream delivery token
	// bucket: payload batches Pushed faster than this are shed (control
	// deltas always pass), with FlowDegraded/FlowRecovered emitted on the
	// transitions and the bucket state persisted into the stream header so
	// a failover replacement stream resumes the same admission state.
	StreamDeliverRate float64
	// StreamDeliverBurst is the per-stream bucket depth (0 = rate).
	StreamDeliverBurst float64
	// Durlog gives the host a durable per-topic delta log (internal/durlog)
	// at that package's default sizing, timed by the host's scheduler: an
	// application that wants durable resume appends every delivered delta
	// through its Runtime and serves cursor catch-up reads from it, so a
	// resuming stream replays the missed suffix from the edge instead of
	// issuing a WAS point query. An application that never calls
	// Runtime.Log* (TypingIndicator, whose state is worthless milliseconds
	// later) never pays for it.
	Durlog bool
}

// Host is one BRASS host: a multi-tenant machine running one instance per
// active application, a Pylon subscription manager, and the BURST server
// endpoints for the streams routed to it.
type Host struct {
	cfg   HostConfig
	pylon PubSub
	was   Backend
	sched sim.Scheduler

	mu        sync.Mutex
	apps      map[string]Application
	instances map[string]*Instance
	// topicHostRefs lists, per topic, the local instances holding a Pylon
	// interest: the subscription manager registers with Pylon only on the
	// 0→1 transition and unregisters on 1→0 (footnote 10). Each list is
	// copy-on-write, so Deliver ranges over it after releasing mu.
	topicHostRefs map[pylon.Topic][]*Instance
	// pendingSubs tracks topics whose Pylon registration failed transiently
	// and is being re-established in the background by the subscription
	// manager; the local refs stay live meanwhile.
	pendingSubs map[pylon.Topic]*subRetry
	nextSubSalt int64
	sessions    map[*burst.ServerSession]bool
	closed      bool

	// subBackoff paces the subscription manager's background retries when
	// Pylon registration fails transiently (quorum loss, no server), at the
	// defaults faults.BackoffPolicy.Normalized fills in.
	subBackoff *faults.Backoff
	seed       int64 // the host identity's hash; every instance's payload cache takes it

	// dlog is the host's durable per-topic log (nil when disabled).
	dlog *durlog.Log

	// Metrics (exported so experiments and tests can assert on them).
	Decisions          metrics.Counter
	Deliveries         metrics.Counter
	Filtered           metrics.Counter
	StreamsOpened      metrics.Counter
	StreamsClosed      metrics.Counter
	InstancesSpun      metrics.Counter
	LoopOverflows      metrics.Counter
	PylonSubs          metrics.Counter
	PylonSubDedups     metrics.Counter // Pylon registrations avoided by the manager
	PylonSubRetries    metrics.Counter // background re-subscription attempts
	WASFetches         metrics.Counter // stream-level payload fetch requests
	PayloadCacheHits   metrics.Counter // fetches served from the payload cache
	PayloadCacheMisses metrics.Counter // fetches that had to resolve via the WAS
	CoalescedFetches   metrics.Counter // always 0: one loop runs an app's fetches (payload.go); the benchmark still reads it
	FlowSignals        metrics.Counter // FlowDegraded/FlowRecovered control deltas emitted
	StreamSheds        metrics.Counter // payload deltas shed by per-stream admission
	LogResumes         metrics.Counter // cursor catch-up reads served from the durable log
	LogExpired         metrics.Counter // cursor reads refused with ErrCursorExpired
	LogCatchUpDeltas   metrics.Counter // payload deltas served by those reads
}

// subRetry is one topic's background re-subscription state.
type subRetry struct {
	bo     *faults.Backoff
	cancel func()
}

// NewHost builds a BRASS host and registers it with Pylon. pyl and wasrv
// are interfaces so the host runs identically against in-process services
// and control-protocol clients; pass a nil interface (not a typed-nil
// pointer) to omit one.
func NewHost(cfg HostConfig, pyl PubSub, wasrv Backend, sched sim.Scheduler) *Host {
	if cfg.ID == "" {
		panic("brass: host needs an ID")
	}
	if sched == nil {
		sched = sim.RealClock{}
	}
	// Seeded off the host identity so a fleet decorrelates its retry
	// jitter and payload-cache TTL refreshes deterministically.
	hsh := fnv.New64a()
	_, _ = hsh.Write([]byte(cfg.ID))
	seed := int64(hsh.Sum64())
	h := &Host{
		cfg:           cfg,
		pylon:         pyl,
		was:           wasrv,
		sched:         sched,
		apps:          make(map[string]Application),
		instances:     make(map[string]*Instance),
		topicHostRefs: make(map[pylon.Topic][]*Instance),
		pendingSubs:   make(map[pylon.Topic]*subRetry),
		sessions:      make(map[*burst.ServerSession]bool),
		subBackoff:    faults.NewBackoff(faults.BackoffPolicy{}, seed),
		seed:          seed,
	}
	if cfg.Durlog {
		h.dlog = durlog.New(durlog.Config{Clock: sched})
	}
	if pyl != nil {
		pyl.RegisterHost(h)
	}
	return h
}

// ID implements pylon.Subscriber.
func (h *Host) ID() string { return h.cfg.ID }

// RegisterApp makes an application available on this host. Instances spool
// up lazily when the first stream arrives.
func (h *Host) RegisterApp(app Application) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.apps[app.Name()] = app
}

// Instance returns the running instance for app, spooling one up if the
// application is registered (the "serverless" behaviour of §1).
func (h *Host) Instance(appName string) (*Instance, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.instanceLocked(appName)
}

func (h *Host) instanceLocked(appName string) (*Instance, error) {
	if h.closed {
		return nil, fmt.Errorf("brass: host %s closed", h.cfg.ID)
	}
	app, ok := h.apps[appName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownApp, appName)
	}
	if inst, ok := h.instances[appName]; ok {
		return inst, nil
	}
	inst := newInstance(h, app)
	h.instances[appName] = inst
	h.InstancesSpun.Inc()
	return inst, nil
}

// RunningInstances returns the number of spooled-up instances.
//
//brlint:allow(test-only-export) an operator stat; the per-node stats registry of ROADMAP item 4(b) is its caller
func (h *Host) RunningInstances() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.instances)
}

// Deliver implements pylon.Subscriber: the host's subscription manager fans
// the event out to every local instance interested in the topic. An event
// ranges the stored copy-on-write list: membership changes pay the copy.
//
//brlint:hotpath per-event BRASS fan-out
func (h *Host) Deliver(ev pylon.Event) {
	h.mu.Lock()
	instances := h.topicHostRefs[ev.Topic]
	h.mu.Unlock()
	for _, inst := range instances {
		inst.deliver(ev)
	}
}

// subscribeTopic is called by an instance on its first local reference to
// topic. The manager registers with Pylon only if no other instance on this
// host already subscribed.
func (h *Host) subscribeTopic(topic pylon.Topic, inst *Instance) error {
	h.mu.Lock()
	set := h.topicHostRefs[topic]
	needPylon := len(set) == 0
	h.topicHostRefs[topic] = with(set, inst)
	h.mu.Unlock()

	if !needPylon {
		h.PylonSubDedups.Inc()
		return nil
	}
	if h.pylon == nil {
		return nil
	}
	if err := h.pylon.Subscribe(topic, h.cfg.ID); err != nil {
		if transientPylonErr(err) {
			// Pylon is transiently unreachable (quorum loss, no server)
			// but the instance's interest is real: keep the local ref and
			// let the subscription manager re-establish the registration
			// in the background — the host-side half of "streams are
			// repairable" (§4). The stream lives on without deltas until
			// the retry lands.
			h.scheduleSubRetry(topic)
			return nil
		}
		h.mu.Lock()
		h.dropRefLocked(topic, inst)
		h.mu.Unlock()
		return err
	}
	h.PylonSubs.Inc()
	return nil
}

// member is an element of a copy-on-write list: alone is the list of it
// alone, over an array inside it written before it is shared.
type member[T any] interface {
	comparable
	alone() []T
}

// with returns list plus x, and without list minus x, or list itself: neither
// writes a stored copy-on-write list, and a list of one is its member's own.
func with[T member[T]](list []T, x T) []T {
	if len(list) == 0 {
		return x.alone()
	}
	return append(slices.Clip(list), x)
}

func without[T member[T]](list []T, x T) []T {
	i := slices.Index(list, x)
	if i < 0 {
		return list
	} else if len(list) == 2 {
		return list[1-i].alone()
	}
	return append(list[:i:i], list[i+1:]...)
}

// transientPylonErr reports whether a Pylon registration failure is worth
// retrying: the subscriber store lost quorum. ErrUnknownSubscriber is
// permanent — this host is not registered.
func transientPylonErr(err error) bool {
	return errors.Is(err, pylon.ErrNoQuorum)
}

// scheduleSubRetry arms (or keeps) a background retry for topic's Pylon
// registration.
func (h *Host) scheduleSubRetry(topic pylon.Topic) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || h.pendingSubs[topic] != nil {
		return
	}
	h.nextSubSalt++
	sr := &subRetry{bo: h.subBackoff.Child(h.nextSubSalt)}
	h.pendingSubs[topic] = sr
	h.armSubRetryLocked(topic, sr)
}

func (h *Host) armSubRetryLocked(topic pylon.Topic, sr *subRetry) {
	sr.cancel = h.sched.After(sr.bo.Next(), func() { h.retrySubscribe(topic, sr) })
}

func (h *Host) retrySubscribe(topic pylon.Topic, sr *subRetry) {
	h.mu.Lock()
	if h.closed || h.pendingSubs[topic] != sr {
		h.mu.Unlock()
		return
	}
	if len(h.topicHostRefs[topic]) == 0 {
		// Local interest evaporated while the retry was pending.
		delete(h.pendingSubs, topic)
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()

	h.PylonSubRetries.Inc()
	err := h.pylon.Subscribe(topic, h.cfg.ID)

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || h.pendingSubs[topic] != sr {
		return
	}
	switch {
	case err == nil:
		delete(h.pendingSubs, topic)
		h.PylonSubs.Inc()
	case transientPylonErr(err):
		h.armSubRetryLocked(topic, sr)
	default:
		// Permanent (e.g. the host was deregistered): stop retrying.
		delete(h.pendingSubs, topic)
	}
}

// unsubscribeTopic drops an instance's interest; the last local reference
// unregisters the host from Pylon.
func (h *Host) unsubscribeTopic(topic pylon.Topic, inst *Instance) {
	h.mu.Lock()
	last := h.dropRefLocked(topic, inst)
	if last {
		if sr := h.pendingSubs[topic]; sr != nil {
			if sr.cancel != nil {
				sr.cancel()
			}
			delete(h.pendingSubs, topic)
		}
	}
	h.mu.Unlock()
	if last && h.pylon != nil {
		_ = h.pylon.Unsubscribe(topic, h.cfg.ID)
	}
}

// dropRefLocked takes inst off topic's list and reports whether that emptied
// the list. Callers hold h.mu.
func (h *Host) dropRefLocked(topic pylon.Topic, inst *Instance) bool {
	set, ok := h.topicHostRefs[topic]
	if rest := without(set, inst); len(rest) > 0 {
		h.topicHostRefs[topic] = rest
		return false
	}
	delete(h.topicHostRefs, topic)
	return ok
}

// DurLog returns the host's durable per-topic log (nil when disabled).
// Tests and experiments read its counters; applications go through the
// Runtime's Log* accessors instead.
func (h *Host) DurLog() *durlog.Log { return h.dlog }

// PendingSubs returns how many topics are awaiting a background Pylon
// re-subscription (tests and experiments).
//
//brlint:allow(test-only-export) an operator stat; the per-node stats registry of ROADMAP item 4(b) is its caller
func (h *Host) PendingSubs() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pendingSubs)
}

// TopicRefs returns how many local instances reference topic (tests).
//
//brlint:allow(test-only-export) an operator stat; the per-node stats registry of ROADMAP item 4(b) is its caller
func (h *Host) TopicRefs(topic pylon.Topic) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.topicHostRefs[topic])
}

// AcceptSession attaches an inbound BURST transport (from a proxy or,
// in tests, directly from a device) to this host.
func (h *Host) AcceptSession(name string, rwc io.ReadWriteCloser) *burst.ServerSession {
	var ss *burst.ServerSession
	ss = burst.NewServerSession(name, rwc, hostSessionHandler{h: h, get: func() *burst.ServerSession { return ss }})
	h.mu.Lock()
	h.sessions[ss] = true
	h.mu.Unlock()
	return ss
}

// Close despools all instances and closes all sessions.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	for topic, sr := range h.pendingSubs {
		if sr.cancel != nil {
			sr.cancel()
		}
		delete(h.pendingSubs, topic)
	}
	instances := h.instancesLocked()
	sessions := make([]*burst.ServerSession, 0, len(h.sessions))
	for s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()
	for _, s := range sessions {
		_ = s.Close()
	}
	for _, inst := range instances {
		inst.stop()
	}
	if h.pylon != nil {
		h.pylon.RemoveHost(h.cfg.ID)
	}
}

type hostSessionHandler struct {
	h   *Host
	get func() *burst.ServerSession
}

// NewStream is a new Stream's BURST stream: the subscribe decodes into the
// Stream itself.
func (hh hostSessionHandler) NewStream() *burst.ServerStream { return &newStream().burst }

// refuse ends a subscribe BRASS will not serve. Its Stream has no instance,
// so State stops leading to it first: a cancel or the session's close that
// follows never reaches closeStream.
func refuse(bst *burst.ServerStream, reason string) {
	bst.State = nil
	_ = bst.Terminate(reason)
}

func (hh hostSessionHandler) OnSubscribe(bst *burst.ServerStream) {
	h := hh.h
	// A user header is input: present, it must name a user (a decimal uid
	// >= 1), or the stream would run as the all-seeing system viewer 0.
	// Absent, the stream is the system viewer's, as in-process tests open.
	var viewer socialgraph.UserID
	if uidStr, ok := bst.LookupHeader(burst.HdrUser); ok {
		uid, err := strconv.ParseUint(uidStr, 10, 64)
		if err != nil || uid == 0 {
			refuse(bst, fmt.Sprintf("%v: user header %q", was.ErrUnknownUser, uidStr))
			return
		}
		viewer = socialgraph.UserID(uid)
	}
	appName := bst.HeaderField(burst.HdrApp)
	inst, err := h.Instance(appName)
	if err != nil {
		refuse(bst, err.Error())
		return
	}
	st := bst.State.(*Stream)
	st.inst, st.Viewer = inst, viewer
	if h.cfg.StreamDeliverRate > 0 {
		rate := h.cfg.StreamDeliverRate
		dburst := h.cfg.StreamDeliverBurst
		if dburst == 0 {
			dburst = rate
		}
		st.admit = overload.TokenBucket{Rate: rate, Burst: dburst}
		// A failover replacement stream carries the old stream's bucket in
		// its rewritten header; restoring (clamped to now) keeps a device
		// from doubling its delivery rate by bouncing between hosts.
		st.admit.RestoreHeaderState(bst.HeaderField(HdrAdmissionState), h.sched.Now())
	}
	// Sticky routing: pin this host into the reconnect state immediately
	// (paper §3.5). Proxies snooping the batch update their copy too.
	_ = bst.RewriteHeaderField(burst.HdrStickyBRASS, h.cfg.ID)
	inst.openStream(st)
}

// OnCancel closes the stream with a constant reason: no application reads
// why its device went away, so the borrowed reason is not copied.
func (hh hostSessionHandler) OnCancel(bst *burst.ServerStream, _ burst.Cancel) {
	if st, ok := bst.State.(*Stream); ok {
		st.inst.closeStream(st, "cancelled")
	}
}

func (hh hostSessionHandler) OnSessionClose(streams []*burst.ServerStream, err error) {
	h := hh.h
	h.mu.Lock()
	if ss := hh.get(); ss != nil {
		delete(h.sessions, ss)
	}
	h.mu.Unlock()
	reason := "session closed"
	switch {
	case errors.Is(err, io.EOF):
		// Clean peer close (device or downstream proxy hung up on
		// purpose) — not a failure.
		reason = "peer closed session"
	case err != nil:
		reason = "session failed: " + err.Error()
	}
	for _, bst := range streams {
		if st, ok := bst.State.(*Stream); ok {
			st.inst.closeStream(st, reason)
		}
	}
}

// Quiesce blocks until every instance's event loop has drained the work
// posted before the call. Tests use it to avoid sleeps.
func (h *Host) Quiesce() {
	h.mu.Lock()
	instances := h.instancesLocked()
	h.mu.Unlock()
	for _, inst := range instances {
		inst.call(func() {})
	}
}

// instancesLocked lists every running instance. Callers hold h.mu.
func (h *Host) instancesLocked() []*Instance {
	out := make([]*Instance, 0, len(h.instances))
	for _, inst := range h.instances {
		out = append(out, inst)
	}
	return out
}

// FilterRate returns the fraction of decisions that did not result in a
// delivery — the paper reports ~80% of messages are filtered out at BRASS.
func (h *Host) FilterRate() float64 {
	d := h.Decisions.Value()
	if d == 0 {
		return 0
	}
	return 1 - float64(h.Deliveries.Value())/float64(d)
}

var _ pylon.Subscriber = (*Host)(nil)
