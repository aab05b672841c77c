// Package brass implements BRASS (Bladerunner Application Stream Servers,
// paper §3.2): per-application stream processors that receive update events
// from Pylon, filter/rank/privacy-check them per device, and push selected
// updates down BURST streams.
//
// Architecture reproduced from the paper:
//
//   - Each application has its own BRASS implementation (the Application
//     interface); there is no generic configurable filter pipeline.
//   - BRASS is serverless: an instance spools up on a host the first time
//     a stream for its application arrives there, and despools when idle.
//   - Each instance runs single-threaded: all callbacks execute on one
//     event-loop goroutine, mirroring the JS V8 VMs Facebook uses, so
//     application code never needs locks.
//   - Hosts are multi-tenant: several application instances share a host.
//     A per-host subscription manager dedups Pylon subscriptions — a topic
//     is registered with Pylon once per host no matter how many local
//     instances want it (footnote 10).
package brass

import (
	"fmt"
	"sync"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/overload"
	"bladerunner/internal/pylon"
	"bladerunner/internal/trace"
)

// Application is one Bladerunner use case's BRASS implementation. Each of
// its instances is created on demand per host.
type Application interface {
	// Name is the application id carried in subscription headers.
	Name() string
	// NewInstance builds the per-host application state. All AppInstance
	// callbacks run on the instance's event loop.
	NewInstance(rt *Runtime) AppInstance
}

// AppInstance receives the application callbacks. Implementations are
// single-threaded by construction and must not block the loop for long.
type AppInstance interface {
	// OnStreamOpen is invoked when a device stream lands on this
	// instance. The app typically resolves the subscription to topics,
	// calls st.AddTopic for each, and initializes per-stream state.
	// Returning an error terminates the stream.
	OnStreamOpen(st *Stream) error
	// OnStreamClose is invoked when a stream ends (cancel, failure, or
	// termination).
	OnStreamClose(st *Stream, reason string)
	// OnEvent is invoked for each Pylon update event on a topic this
	// instance subscribed to.
	OnEvent(ev pylon.Event)
	// OnAck is invoked when a device acknowledges deltas.
	OnAck(st *Stream, seq uint64)
}

// Instance is one spooled-up BRASS: an application's state plus the event
// loop that serializes all its work.
type Instance struct {
	host *Host
	app  Application
	rt   *Runtime
	impl AppInstance

	tasks *overload.Queue[func()]
	quit  chan struct{}
	done  chan struct{}

	// Loop-owned state (no locks needed on the loop):
	topicStreams map[pylon.Topic]map[*Stream]bool
	streams      map[*Stream]bool

	// flowStreams mirrors the loop-owned streams set for the degraded-mode
	// signaler, which runs on whatever goroutine tripped the queue
	// transition and therefore cannot read the loop-owned map.
	flowMu      sync.Mutex
	flowStreams map[*Stream]bool

	mu      sync.Mutex
	stopped bool
}

// taskBuffer bounds the pending work per instance by default
// (HostConfig.LoopQueueDepth overrides). Pylon delivery is best-effort: a
// saturated loop sheds the OLDEST delivery task and counts it, while
// stream-lifecycle work (open/close/ack) rides the Control class and is
// never shed — the paper's "drop messages intelligently" happens in app
// logic; this bounded queue is the backstop.
const taskBuffer = 4096

func newInstance(h *Host, app Application) *Instance {
	depth := h.cfg.LoopQueueDepth
	if depth == 0 {
		depth = taskBuffer
	} else if depth < 0 {
		depth = 0 // explicit "unbounded"
	}
	inst := &Instance{
		host:         h,
		app:          app,
		tasks:        overload.NewQueue[func()](depth),
		quit:         make(chan struct{}),
		done:         make(chan struct{}),
		topicStreams: make(map[pylon.Topic]map[*Stream]bool),
		streams:      make(map[*Stream]bool),
		flowStreams:  make(map[*Stream]bool),
	}
	inst.tasks.OnDegraded = func() { inst.signalFlow(burst.FlowDegraded) }
	inst.tasks.OnRecovered = func() { inst.signalFlow(burst.FlowRecovered) }
	inst.rt = &Runtime{host: h, inst: inst}
	inst.impl = app.NewInstance(inst.rt)
	go inst.loop()
	return inst
}

func (inst *Instance) loop() {
	defer close(inst.done)
	for {
		select {
		case <-inst.tasks.Ready():
			for {
				fn, _, ok := inst.tasks.Pop()
				if !ok {
					break
				}
				fn()
			}
		case <-inst.quit:
			// Drain remaining tasks before exiting so shutdown is
			// not racy with queued work.
			for {
				fn, _, ok := inst.tasks.Pop()
				if !ok {
					return
				}
				fn()
			}
		}
	}
}

// signalFlow tells every stream on this instance that its loop entered or
// left the shedding state.
func (inst *Instance) signalFlow(code burst.FlowCode) {
	inst.flowMu.Lock()
	streams := make([]*Stream, 0, len(inst.flowStreams))
	for st := range inst.flowStreams {
		streams = append(streams, st)
	}
	inst.flowMu.Unlock()
	for _, st := range streams {
		st.announce(code, "brass-loop")
	}
}

// post enqueues fn onto the event loop as Control-class work (lifecycle,
// acks, timers): it is never shed. It reports false only when the
// instance has stopped.
func (inst *Instance) post(fn func()) bool {
	return inst.postClass(fn, overload.Control)
}

// postClass enqueues fn with an explicit shed class. Data-class work
// (event deliveries) may displace the oldest queued Data task when the
// loop is saturated; the displaced work is counted in LoopOverflows.
func (inst *Instance) postClass(fn func(), class overload.Class) bool {
	inst.mu.Lock()
	if inst.stopped {
		inst.mu.Unlock()
		return false
	}
	inst.mu.Unlock()
	if shed := inst.tasks.Push(fn, class); shed > 0 {
		inst.host.LoopOverflows.Add(int64(shed))
	}
	return true
}

// call posts fn and waits for it to run — used by tests and by host
// teardown paths that need synchronous semantics.
func (inst *Instance) call(fn func()) {
	ch := make(chan struct{})
	if !inst.post(func() {
		defer close(ch)
		fn()
	}) {
		return
	}
	select {
	case <-ch:
	case <-inst.done:
	}
}

// stop despools the instance: pending tasks are drained, then the loop
// exits. Host-level maps are cleaned by the caller.
func (inst *Instance) stop() {
	inst.mu.Lock()
	if inst.stopped {
		inst.mu.Unlock()
		return
	}
	inst.stopped = true
	inst.mu.Unlock()
	close(inst.quit)
	<-inst.done
}

// deliver posts a Pylon event to the loop, counting per-stream decisions:
// every event arriving at an instance forces one keep/drop decision per
// candidate stream (Fig 8's "decisions on updates"). Deliveries are
// Data-class: a saturated loop sheds the oldest queued delivery rather
// than blocking Pylon or losing lifecycle work.
//
// audited allocation.
//
//brlint:hotpath per-event instance hand-off; the posted closure is the one
func (inst *Instance) deliver(ev pylon.Event) {
	//brlint:allow(hot-path-alloc) the event-loop task closure is the delivery unit itself: one bounded capture per event, shed oldest-first by the Data-class queue under overload
	inst.postClass(func() {
		sp := inst.host.cfg.Tracer.Start(ev.Trace, trace.HopDeliver, trace.HopFanout)
		defer sp.End()
		sp.Annotate("host", inst.host.cfg.ID)
		sp.Annotate("app", inst.app.Name())
		if streams := inst.topicStreams[ev.Topic]; len(streams) > 0 {
			inst.host.Decisions.Add(int64(len(streams)))
			sp.AnnotateInt("streams", int64(len(streams)))
		} else {
			// Subscribed with no local streams (e.g. friend-status
			// fan-in): still one decision by the app.
			inst.host.Decisions.Inc()
			sp.AnnotateInt("streams", 0)
		}
		inst.impl.OnEvent(ev)
	}, overload.Data)
}

// addTopicRef registers st's interest in topic (loop-owned).
func (inst *Instance) addTopicRef(topic pylon.Topic, st *Stream) error {
	set := inst.topicStreams[topic]
	first := set == nil
	if first {
		set = make(map[*Stream]bool)
		inst.topicStreams[topic] = set
	}
	if set[st] {
		return nil
	}
	set[st] = true
	st.topics[topic] = true
	if first {
		if err := inst.host.subscribeTopic(topic, inst); err != nil {
			delete(inst.topicStreams, topic)
			delete(st.topics, topic)
			return err
		}
	}
	return nil
}

// dropTopicRef removes st's interest; the last reference unsubscribes the
// instance (and possibly the host) from Pylon.
func (inst *Instance) dropTopicRef(topic pylon.Topic, st *Stream) {
	set := inst.topicStreams[topic]
	if set == nil || !set[st] {
		return
	}
	delete(set, st)
	delete(st.topics, topic)
	if len(set) == 0 {
		delete(inst.topicStreams, topic)
		inst.host.unsubscribeTopic(topic, inst)
	}
}

// StreamsForTopic returns the streams currently interested in topic. Only
// call from the event loop (i.e. from application callbacks).
func (inst *Instance) StreamsForTopic(topic pylon.Topic) []*Stream {
	set := inst.topicStreams[topic]
	out := make([]*Stream, 0, len(set))
	for st := range set {
		out = append(out, st)
	}
	return out
}

// Streams returns all open streams on this instance (loop-only).
func (inst *Instance) Streams() []*Stream {
	out := make([]*Stream, 0, len(inst.streams))
	for st := range inst.streams {
		out = append(out, st)
	}
	return out
}

// openStream runs the full stream-open sequence on the loop.
func (inst *Instance) openStream(st *Stream) {
	inst.post(func() {
		inst.streams[st] = true
		if err := inst.impl.OnStreamOpen(st); err != nil {
			delete(inst.streams, st)
			for topic := range st.topics {
				inst.dropTopicRef(topic, st)
			}
			_ = st.burst.Terminate(fmt.Sprintf("rejected: %v", err))
			return
		}
		inst.flowMu.Lock()
		inst.flowStreams[st] = true
		inst.flowMu.Unlock()
		inst.host.StreamsOpened.Inc()
		// A stream landing on an already-shedding loop learns immediately
		// that deltas may be dropped, so its device can reopen it.
		if inst.tasks.Shedding() {
			st.announce(burst.FlowDegraded, "brass-loop")
		}
	})
}

// closeStream runs the stream-close sequence on the loop.
func (inst *Instance) closeStream(st *Stream, reason string) {
	inst.post(func() {
		if !inst.streams[st] {
			return
		}
		delete(inst.streams, st)
		inst.flowMu.Lock()
		delete(inst.flowStreams, st)
		inst.flowMu.Unlock()
		for topic := range st.topics {
			inst.dropTopicRef(topic, st)
		}
		inst.impl.OnStreamClose(st, reason)
		inst.host.StreamsClosed.Inc()
		if len(inst.streams) == 0 {
			// Per-stream instances despool with their stream.
			inst.host.despool(inst)
		}
	})
}

// After schedules fn on the event loop after d (application timers).
func (inst *Instance) After(d time.Duration, fn func()) (cancel func()) {
	return inst.host.sched.After(d, func() { inst.post(fn) })
}
