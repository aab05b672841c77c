package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bladerunner/internal/brass"
	"bladerunner/internal/edge"
	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/was"
)

// Tracing lives entirely in the benchmark: timing wrappers slot into the
// seams the tiers already expose (was.Publisher, brass.PubSub with its
// pylon.Subscriber, brass.Backend, edge.Dialer and the transports it
// returns) and record spans in memory. Nothing inside the program is
// instrumented, and an untraced run wires the real services directly — a
// nil *tracer hands every seam back unwrapped.

type spanName uint8

const (
	spanMutate      spanName = iota // generator: one Mutate call
	spanPublish                     // was.Publisher: WAS → Pylon publish
	spanDeliver                     // pylon.Subscriber: Pylon → Host.Deliver
	spanQueueWait                   // Deliver return → first backend call for the event on that host
	spanVisibility                  // brass.Backend: CheckEventVisibility
	spanResolve                     // brass.Backend: ResolvePayloadIn
	spanDownstream                  // visibility return → delta decoded at the generator
	spanSubscribe                   // brass.PubSub: Subscribe
	spanUnsubscribe                 // brass.PubSub: Unsubscribe
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"was.mutate", "pylon.publish", "brass.deliver", "brass.queue_wait",
	"was.visibility", "was.resolve", "edge.downstream",
	"pylon.subscribe", "pylon.unsubscribe",
}

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch; parent is an index into the span list (-1 = root); event is the
// generator's op index, shared by every span one mutation caused (-1 for
// set-up work).
type span struct {
	name       spanName
	start, end int64
	parent     int32
	event      int32
}

// link classes for transport accounting.
const (
	linkDevice = iota // generator ↔ POP: what a device's last mile carries
	linkRelay         // POP ↔ proxy and proxy ↔ BRASS
	linkCtrl          // tier ↔ tier control sockets (wire workloads only)
	numLinks
)

type linkStats struct {
	writes, bytes atomic.Int64
}

type refTopic struct {
	ref   uint64
	topic pylon.Topic
}

type hostEvent struct {
	host string
	id   uint64 // pylon event id: unique per publish
}

type viewerEvent struct {
	viewer uint64
	key    uint64 // mailbox seq when the event has one, else the TAO ref
}

// mark remembers a finished (or still open, end == 0) span that a later
// span on another goroutine hangs off.
type mark struct {
	span   int32
	event  int32
	end    int64
	waited bool // deliver marks: queue wait already recorded
}

type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	publish  map[refTopic]mark    // publish span of each event, for its deliver spans
	deliver  map[hostEvent]mark   // deliver span per (host, event)
	visible  map[viewerEvent]mark // visibility span awaiting its downstream leg
	curOp    int32                // op whose Mutate is running (-1 outside one)
	curSpan  int32
	links    [numLinks]linkStats
	kvViews  atomic.Int64
	kvWrites atomic.Int64
}

func newTracer() *tracer {
	return &tracer{
		epoch:   sim.RealClock{}.Now(),
		publish: make(map[refTopic]mark),
		deliver: make(map[hostEvent]mark),
		visible: make(map[viewerEvent]mark),
		curOp:   -1, curSpan: -1,
	}
}

func (t *tracer) now() int64 { return int64(sim.RealClock{}.Now().Sub(t.epoch)) }

// beginLocked opens a span; the caller holds t.mu.
func (t *tracer) beginLocked(name spanName, parent, event int32) int32 {
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent, event: event})
	return int32(len(t.spans) - 1)
}

func (t *tracer) begin(name spanName, parent, event int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginLocked(name, parent, event)
}

func (t *tracer) end(id int32) int64 {
	now := t.now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
	return now
}

// beginMutate opens the root span of op and makes it the parent of the
// publishes its Mutate performs. One Mutate runs at a time (the generator
// has one publishing goroutine), on the wire too, where the publish happens
// on the WAS's dispatcher while the generator waits for the reply.
func (t *tracer) beginMutate(op int32) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.beginLocked(spanMutate, -1, op)
	t.curOp, t.curSpan = op, id
	return id
}

func (t *tracer) endMutate(id int32) {
	if t == nil {
		return
	}
	t.end(id)
	t.mu.Lock()
	t.curOp, t.curSpan = -1, -1
	t.mu.Unlock()
}

// downstream closes the last leg of one delivery: from the moment the WAS
// released the event to viewer until the generator decoded the delta.
func (t *tracer) downstream(viewer, key uint64, decoded int64) {
	if t == nil {
		return
	}
	k := viewerEvent{viewer, key}
	t.mu.Lock()
	if m, ok := t.visible[k]; ok {
		delete(t.visible, k)
		t.spans = append(t.spans, span{name: spanDownstream, start: m.end, end: decoded, parent: m.span, event: m.event})
	}
	t.mu.Unlock()
}

// --- was.Publisher seam -------------------------------------------------

type tracedPublisher struct {
	t     *tracer
	inner was.Publisher
}

func (t *tracer) publisher(inner was.Publisher) was.Publisher {
	if t == nil {
		return inner
	}
	return tracedPublisher{t, inner}
}

func (p tracedPublisher) Publish(ev pylon.Event) (int, error) {
	t := p.t
	t.mu.Lock()
	id := t.beginLocked(spanPublish, t.curSpan, t.curOp)
	t.publish[refTopic{ev.Ref, ev.Topic}] = mark{span: id, event: t.curOp}
	t.mu.Unlock()
	n, err := p.inner.Publish(ev)
	t.end(id)
	return n, err
}

// --- brass.PubSub seam (and the pylon.Subscriber it registers) -----------

type tracedPubSub struct {
	t     *tracer
	host  string
	inner brass.PubSub
}

func (t *tracer) pubsub(host string, inner brass.PubSub) brass.PubSub {
	if t == nil {
		return inner
	}
	return tracedPubSub{t, host, inner}
}

func (p tracedPubSub) RegisterHost(sub pylon.Subscriber) {
	p.inner.RegisterHost(tracedSubscriber{p.t, p.host, sub})
}

func (p tracedPubSub) Subscribe(topic pylon.Topic, hostID string) error {
	id := p.t.begin(spanSubscribe, -1, -1)
	err := p.inner.Subscribe(topic, hostID)
	p.t.end(id)
	return err
}

func (p tracedPubSub) Unsubscribe(topic pylon.Topic, hostID string) error {
	id := p.t.begin(spanUnsubscribe, -1, -1)
	err := p.inner.Unsubscribe(topic, hostID)
	p.t.end(id)
	return err
}

func (p tracedPubSub) RemoveHost(hostID string) { p.inner.RemoveHost(hostID) }

type tracedSubscriber struct {
	t     *tracer
	host  string
	inner pylon.Subscriber
}

func (s tracedSubscriber) ID() string { return s.inner.ID() }

func (s tracedSubscriber) Deliver(ev pylon.Event) {
	t := s.t
	k := hostEvent{s.host, ev.ID}
	t.mu.Lock()
	pub, ok := t.publish[refTopic{ev.Ref, ev.Topic}]
	if !ok {
		pub = mark{span: -1, event: -1}
	}
	id := t.beginLocked(spanDeliver, pub.span, pub.event)
	// Registered before the host sees the event: its loop may reach the
	// backend before Deliver returns.
	t.deliver[k] = mark{span: id, event: pub.event}
	t.mu.Unlock()
	s.inner.Deliver(ev)
	end := t.end(id)
	t.mu.Lock()
	if m, ok := t.deliver[k]; ok && !m.waited {
		m.end = end
		t.deliver[k] = m
	}
	t.mu.Unlock()
}

// --- brass.Backend seam ---------------------------------------------------

type tracedBackend struct {
	t     *tracer
	host  string
	inner brass.Backend
}

func (t *tracer) backend(host string, inner brass.Backend) brass.Backend {
	if t == nil {
		return inner
	}
	return tracedBackend{t, host, inner}
}

// call opens a backend span for ev on this host. The host's first backend
// call for an event also closes the event's queue wait: the time it sat
// between Host.Deliver returning and an instance loop acting on it.
func (b tracedBackend) call(name spanName, ev pylon.Event) (id, event int32) {
	t := b.t
	k := hostEvent{b.host, ev.ID}
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.deliver[k]
	if !ok {
		return t.beginLocked(name, -1, -1), -1
	}
	if !m.waited {
		m.waited = true
		t.deliver[k] = m
		now := t.now()
		from := m.end
		if from == 0 || from > now {
			from = now // the loop got there before Deliver returned
		}
		t.spans = append(t.spans, span{name: spanQueueWait, start: from, end: now, parent: m.span, event: m.event})
	}
	return t.beginLocked(name, m.span, m.event), m.event
}

func (b tracedBackend) CheckEventVisibility(viewer socialgraph.UserID, ev pylon.Event) error {
	id, event := b.call(spanVisibility, ev)
	err := b.inner.CheckEventVisibility(viewer, ev)
	end := b.t.end(id)
	key := ev.Seq
	if key == 0 {
		key = ev.Ref
	}
	b.t.mu.Lock()
	b.t.visible[viewerEvent{uint64(viewer), key}] = mark{span: id, event: event, end: end}
	b.t.mu.Unlock()
	return err
}

func (b tracedBackend) ResolvePayloadIn(region, app string, ev pylon.Event) ([]byte, error) {
	id, _ := b.call(spanResolve, ev)
	out, err := b.inner.ResolvePayloadIn(region, app, ev)
	b.t.end(id)
	return out, err
}

func (b tracedBackend) ResolveSubscription(viewer socialgraph.UserID, expr string) ([]pylon.Topic, error) {
	return b.inner.ResolveSubscription(viewer, expr)
}

func (b tracedBackend) QueryIn(region string, viewer socialgraph.UserID, expr string) ([]byte, error) {
	return b.inner.QueryIn(region, viewer, expr)
}

func (b tracedBackend) FetchPayloadIn(region, app string, viewer socialgraph.UserID, ev pylon.Event) ([]byte, error) {
	return b.inner.FetchPayloadIn(region, app, viewer, ev)
}

// --- edge.Dialer / transport seam ----------------------------------------

type countedConn struct {
	io.ReadWriteCloser
	s *linkStats
}

func (c countedConn) Write(p []byte) (int, error) {
	c.s.writes.Add(1)
	c.s.bytes.Add(int64(len(p)))
	return c.ReadWriteCloser.Write(p)
}

// conn counts the writes one end of a link makes. Both ends of every link
// are wrapped, so a link's totals cover both directions.
func (t *tracer) conn(link int, rwc io.ReadWriteCloser) io.ReadWriteCloser {
	if t == nil {
		return rwc
	}
	return countedConn{rwc, &t.links[link]}
}

func (t *tracer) dialer(link int, inner edge.Dialer) edge.Dialer {
	if t == nil {
		return inner
	}
	return edge.TransformDialer{Inner: inner, Transform: func(rwc io.ReadWriteCloser) io.ReadWriteCloser {
		return t.conn(link, rwc)
	}}
}

// --- kvstore -------------------------------------------------------------

// watchKV counts replica reads and writes through the nodes' public fault
// hook. The tier constructor does not hand the nodes out, so they are found
// through replica placement: probe keys until every node has shown up.
func (t *tracer) watchKV(kv *kvstore.Cluster, nodes int) {
	if t == nil {
		return
	}
	hook := func(op, _ string) error {
		if op == "view" {
			t.kvViews.Add(1)
		} else {
			t.kvWrites.Add(1)
		}
		return nil
	}
	seen := make(map[*kvstore.Node]bool)
	for i := 0; len(seen) < nodes && i < 4096; i++ {
		for _, n := range kv.ReplicasFor(fmt.Sprintf("probe-%d", i)) {
			if !seen[n] {
				seen[n] = true
				n.SetOpHook(hook)
			}
		}
	}
}

// --- analysis --------------------------------------------------------------

// traceSummary is what a traced pass keeps of its tracer: taken once the
// measured work is done and before the cluster is torn down, so that
// teardown (sessions closing, hosts unsubscribing) is not attributed to
// the workload.
type traceSummary struct {
	spans             [numSpanNames]spanStats
	links             [numLinks]struct{ writes, bytes int64 }
	kvViews, kvWrites int64
	publishToDeliver  float64 // µs
	written           int     // spans that belong to the pass
}

func (t *tracer) summarize() *traceSummary {
	if t == nil {
		return nil
	}
	s := &traceSummary{
		spans:            t.stats(),
		kvViews:          t.kvViews.Load(),
		kvWrites:         t.kvWrites.Load(),
		publishToDeliver: t.publishToDeliverUS(),
	}
	for i := range t.links {
		s.links[i].writes, s.links[i].bytes = t.links[i].writes.Load(), t.links[i].bytes.Load()
	}
	t.mu.Lock()
	s.written = len(t.spans)
	t.mu.Unlock()
	return s
}

type spanStats struct {
	count int64
	total int64 // ns
	self  int64 // ns: total minus the part child spans cover
}

func (s spanStats) meanUS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count) / 1e3
}

func (s spanStats) selfUS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.self) / float64(s.count) / 1e3
}

// stats folds the span list into per-name totals. A span's self time is
// its duration minus the part of that interval its child spans cover
// (children of one parent never overlap each other here: each parent's
// children run on one goroutine).
func (t *tracer) stats() [numSpanNames]spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent < 0 || s.end == 0 {
			continue
		}
		p := t.spans[s.parent]
		from, to := max(s.start, p.start), min(s.end, p.end)
		if to > from {
			covered[s.parent] += to - from
		}
	}
	var out [numSpanNames]spanStats
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		st := &out[s.name]
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - covered[i]
	}
	return out
}

// write dumps the first n spans as JSON rows [name, start_ns, end_ns,
// parent, event].
func (t *tracer) write(path, workload string, n int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rows := make([][5]int64, n)
	for i, s := range t.spans[:n] {
		rows[i] = [5]int64{int64(s.name), s.start, s.end, int64(s.parent), int64(s.event)}
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": workload,
		"columns":  []string{"name", "start_ns", "end_ns", "parent", "event"},
		"names":    spanNames,
		"spans":    rows,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// publishToDeliverUS is the mean time from a publish entering the
// was.Publisher seam to Host.Deliver being entered for it: in-process a
// few function calls, on the wire two control sockets.
func (t *tracer) publishToDeliverUS() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n, total int64
	for _, s := range t.spans {
		if s.name == spanDeliver && s.parent >= 0 {
			n++
			total += s.start - t.spans[s.parent].start
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e3
}
