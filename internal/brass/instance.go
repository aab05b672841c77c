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
	"slices"
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

	tasks *overload.Queue[task]
	quit  chan struct{}
	done  chan struct{}

	// Loop-owned state (no locks needed on the loop). Each topic's stream
	// list is copy-on-write, in open order: StreamsForTopic hands out the
	// stored slice, and an AddTopic/DropTopic stores a new one.
	topicStreams map[pylon.Topic][]*Stream

	// streams is the open-stream set. The loop writes it under flowMu and
	// reads it freely; the degraded-mode signaler, which runs on whatever
	// goroutine tripped the queue transition, reads it under flowMu.
	flowMu  sync.Mutex
	streams map[*Stream]bool

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

// task is one unit of loop work, held by value: a delivery is its event, a
// stream's open or close is the stream (and the reason it closed), and acks,
// timers and calls are fn.
type task struct {
	kind   taskKind
	ev     pylon.Event // taskDeliver
	st     *Stream     // taskOpen, taskClose
	reason string      // taskClose
	fn     func()      // taskFunc
}

// taskKind says which of task's fields a task carries.
type taskKind uint8

const (
	taskDeliver taskKind = iota
	taskOpen
	taskClose
	taskFunc
)

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
		tasks:        overload.NewQueue[task](depth),
		quit:         make(chan struct{}),
		done:         make(chan struct{}),
		topicStreams: make(map[pylon.Topic][]*Stream),
		streams:      make(map[*Stream]bool),
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
	for quit := false; !quit; {
		select {
		case <-inst.tasks.Ready():
		case <-inst.quit:
			// Drain remaining tasks before exiting so shutdown is
			// not racy with queued work.
			quit = true
		}
		for t, _, ok := inst.tasks.Pop(); ok; t, _, ok = inst.tasks.Pop() {
			inst.run(t)
		}
	}
}

// run executes one task on the loop: lifecycle work, or one event handed to
// the app — one keep/drop decision per candidate stream (Fig 8's "decisions
// on updates").
func (inst *Instance) run(t task) {
	switch t.kind {
	case taskOpen:
		inst.runOpen(t.st)
		return
	case taskClose:
		inst.runClose(t.st, t.reason)
		return
	case taskFunc:
		t.fn()
		return
	}
	ev := t.ev
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
}

// signalFlow tells every stream on this instance that its loop entered or
// left the shedding state.
func (inst *Instance) signalFlow(code burst.FlowCode) {
	inst.flowMu.Lock()
	streams := inst.Streams()
	inst.flowMu.Unlock()
	for _, st := range streams {
		st.announce(code, "brass-loop")
	}
}

// post enqueues fn onto the event loop as Control-class work (lifecycle,
// acks, timers): it is never shed. It reports false only when the
// instance has stopped.
func (inst *Instance) post(fn func()) bool {
	return inst.push(task{kind: taskFunc, fn: fn}, overload.Control)
}

// push enqueues t with an explicit shed class. Data-class work (event
// deliveries) may displace the oldest queued Data task when the loop is
// saturated; the displaced work is counted in LoopOverflows.
//
//brlint:hotpath per-event enqueue: the task is a value in the queue's array
func (inst *Instance) push(t task, class overload.Class) bool {
	inst.mu.Lock()
	if inst.stopped {
		inst.mu.Unlock()
		return false
	}
	inst.mu.Unlock()
	//brlint:allow(hot-path-alloc) not per event: the queue's array grows only to a new occupancy high-water mark (Pop reuses it), and OnDegraded runs once per shed episode
	if shed := inst.tasks.Push(t, class); shed > 0 {
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

// deliver hands a Pylon event to the loop as a value task (run does the
// rest). Deliveries are Data-class: a saturated loop sheds the oldest queued
// delivery rather than blocking Pylon or losing lifecycle work.
//
//brlint:hotpath per-event instance hand-off
func (inst *Instance) deliver(ev pylon.Event) {
	inst.push(task{ev: ev}, overload.Data)
}

// addTopicRef registers st's interest in topic (loop-owned).
func (inst *Instance) addTopicRef(topic pylon.Topic, st *Stream) error {
	// st holds topic exactly when it is on topic's list. Searching that list,
	// which the append below copies anyway, keeps a k-topic open linear where
	// searching st.topics would be quadratic; from the tail, because a
	// repeated add is most often of the topic st added last.
	set := inst.topicStreams[topic]
	for i := len(set) - 1; i >= 0; i-- {
		if set[i] == st {
			return nil
		}
	}
	inst.topicStreams[topic] = append(slices.Clip(set), st)
	st.topics = append(st.topics, topic)
	if len(set) == 0 {
		if err := inst.host.subscribeTopic(topic, inst); err != nil {
			delete(inst.topicStreams, topic)
			st.topics = st.topics[:len(st.topics)-1]
			return err
		}
	}
	return nil
}

// dropTopicRef removes st's interest; the last reference unsubscribes the
// instance (and possibly the host) from Pylon.
func (inst *Instance) dropTopicRef(topic pylon.Topic, st *Stream) {
	// From the back: a close drops the last-added topic first.
	i := len(st.topics) - 1
	for i >= 0 && st.topics[i] != topic {
		i--
	}
	if i < 0 {
		return
	}
	st.topics = slices.Delete(st.topics, i, i+1)
	if rest := without(inst.topicStreams[topic], st); len(rest) > 0 {
		inst.topicStreams[topic] = rest
		return
	}
	delete(inst.topicStreams, topic)
	inst.host.unsubscribeTopic(topic, inst)
}

// dropTopics drops every topic st holds, the last-added first.
func (inst *Instance) dropTopics(st *Stream) {
	for n := len(st.topics); n > 0; n = len(st.topics) {
		inst.dropTopicRef(st.topics[n-1], st)
	}
}

// StreamsForTopic returns the streams interested in topic, in the order they
// added it. The slice is the instance's own: read-only, and a snapshot — an
// AddTopic or DropTopic while the caller ranges over it stores a new list and
// leaves this one alone. Only call from the event loop (i.e. from
// application callbacks).
func (inst *Instance) StreamsForTopic(topic pylon.Topic) []*Stream {
	return inst.topicStreams[topic]
}

// Streams returns all open streams on this instance (loop-only, or under
// flowMu).
func (inst *Instance) Streams() []*Stream {
	out := make([]*Stream, 0, len(inst.streams))
	for st := range inst.streams {
		out = append(out, st)
	}
	return out
}

// openStream queues the stream-open sequence on the loop as a value task:
// Control class, so it is never shed and runs before any delivery queued
// after it.
func (inst *Instance) openStream(st *Stream) {
	inst.push(task{kind: taskOpen, st: st}, overload.Control)
}

// closeStream queues the stream-close sequence on the loop, as openStream.
func (inst *Instance) closeStream(st *Stream, reason string) {
	inst.push(task{kind: taskClose, st: st, reason: reason}, overload.Control)
}

// runOpen is the stream-open sequence (loop-only).
func (inst *Instance) runOpen(st *Stream) {
	inst.flowMu.Lock()
	inst.streams[st] = true
	inst.flowMu.Unlock()
	if err := inst.impl.OnStreamOpen(st); err != nil {
		inst.flowMu.Lock()
		delete(inst.streams, st)
		inst.flowMu.Unlock()
		inst.dropTopics(st)
		_ = st.burst.Terminate(fmt.Sprintf("rejected: %v", err))
		return
	}
	inst.host.StreamsOpened.Inc()
	// A stream landing on an already-shedding loop learns immediately
	// that deltas may be dropped, so its device can reopen it.
	if inst.tasks.Shedding() {
		st.announce(burst.FlowDegraded, "brass-loop")
	}
}

// runClose is the stream-close sequence (loop-only). A stream closes once.
func (inst *Instance) runClose(st *Stream, reason string) {
	if !inst.streams[st] {
		return
	}
	inst.flowMu.Lock()
	delete(inst.streams, st)
	inst.flowMu.Unlock()
	inst.dropTopics(st)
	inst.impl.OnStreamClose(st, reason)
	inst.host.StreamsClosed.Inc()
	if len(inst.streams) == 0 {
		// Per-stream instances despool with their stream.
		inst.host.despool(inst)
	}
}

// After schedules fn on the event loop after d (application timers).
func (inst *Instance) After(d time.Duration, fn func()) (cancel func()) {
	return inst.host.sched.After(d, func() { inst.post(fn) })
}
