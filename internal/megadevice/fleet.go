package megadevice

import (
	"fmt"
	"sync"
	"time"

	"bladerunner/internal/edge"
	"bladerunner/internal/faults"
	"bladerunner/internal/intern"
	"bladerunner/internal/metrics"
	"bladerunner/internal/sim"
)

// Area describes one subscription target shared by the virtual devices
// assigned to it: the app, the subscription expression a trunk sends when
// it first needs the topic, and the concrete topic (for probe arming and
// diagnostics). User is the representative viewer id the trunk subscribes
// as; the apps the harness drives build payloads from the event alone, so
// one viewer stands in for every device sharing the stream.
type Area struct {
	App          string
	Subscription string
	Topic        string
	User         uint64
	// Cursor, when non-empty, is sent as HdrCursor on the shared
	// subscription: a durable-log sentinel ("earliest" replays the whole
	// retained window — the late-joiner case). A concrete cursor is lowered
	// to what the stream has delivered, on the first open as on every reopen.
	Cursor string
}

// Config parameterizes a Fleet.
type Config struct {
	// Devices is the number of virtual devices (dense ids 0..Devices-1).
	Devices int
	// StreamsPerDevice is the subscription count per device (default 1).
	StreamsPerDevice int
	// Areas are the subscription targets streams attach to.
	Areas []Area
	// StreamArea maps (device, stream ordinal) to an area index. nil
	// defaults to round-robin (dev+k) % len(Areas).
	StreamArea func(dev uint32, k int) uint32
	// POPs are the dialable edge targets, in rotation order.
	POPs []string
	// Dialer reaches the POPs. nil builds a fleet with VIRTUAL trunks
	// (always attach, no real session) — for unit tests and benchmarks
	// that inject deltas directly.
	Dialer edge.Dialer
	// Sched drives all transitions. With a *sim.Engine the caller owns
	// the pump (run the engine, call Service between bursts); with
	// sim.RealClock set Async so external events self-service.
	Sched sim.Scheduler
	// Clock supplies wall timestamps for delivery-latency probes
	// (default sim.RealClock{}); it is read on the apply hot path and
	// must be cheap.
	Clock sim.Clock
	// Async marks Sched as goroutine-safe: trunk-death notifications
	// schedule their own Service call instead of waiting for the driver.
	Async bool
	// Backoff paces redials, as device.Config.Backoff does (zero fields
	// default through faults.BackoffPolicy.Normalized).
	Backoff faults.BackoffPolicy
	// Seed decorrelates the stateless per-device jitter.
	Seed int64
	// RecordDeliveries keeps the full per-stream delivered-seq trace
	// (equivalence tests only; costs per-delivery memory, excluded from
	// Footprint's per-device budget by design — see DeliveredSeqs).
	RecordDeliveries bool
	// HomePOP, when set, pins each device's initial POP preference
	// (index into POPs) instead of the default 0. Scenario use: seed
	// devices and late joiners land on different POPs so the joiners
	// create fresh trunks whose first subscribe carries the area cursor.
	HomePOP func(dev uint32) int
}

// Fleet is a population of virtual devices multiplexed over per-POP trunk
// sessions. All state-machine transitions run under one mutex on the
// configured scheduler; the per-delta apply path touches only per-topic
// state and atomics so trunk read-loops never contend with transitions.
type Fleet struct {
	cfg    Config
	sched  sim.Scheduler
	clock  sim.Clock
	policy faults.BackoffPolicy

	topics   *intern.Table
	areaOf   []uint32 // topic handle -> area index
	topicOf  []uint32 // area index -> topic handle
	seedBase uint64

	mu       sync.Mutex
	tab      *tables
	heap     tranHeap
	trunks   map[string]*trunk // POP -> live trunk
	trunkIDs []*trunk          // trunk id -> trunk (never reused)
	closed   bool

	// Single armed scheduler timer covering the earliest pending
	// transition (rearmed when an earlier one is pushed).
	timerArmed  bool
	timerDue    int64
	timerCancel func()

	// External events (trunk deaths, shed episodes, terminations) arrive
	// on trunk read goroutines; they queue under their own mutex and drain
	// in Service, so a HandleClose firing mid-transition cannot deadlock.
	extMu      sync.Mutex
	extClosed  []*trunk
	extResumes []*topicSub
	extLost    []*topicSub
	extEnds    []*topicSub

	// probeWall holds, per area, the wall-clock nanos of an armed
	// delivery probe; the first applied delta claims it (Swap) and
	// records mutate->edge-apply latency.
	probeWall []paddedInt64

	// connected counts devices in StateConnected.
	connected int

	// rec, when RecordDeliveries is set, holds each stream's delivered
	// payload-seq trace (appended under the owning topicSub's mutex).
	rec [][]uint64

	// Metrics.
	Deltas       metrics.Counter // payload deltas decoded on trunks
	Applied      metrics.Counter // per-virtual-device delta applications
	FlowEvents   metrics.Counter
	Resumes      metrics.Counter // reopens of a shared stream its Recovery answered: shed episodes and lost upstreams
	Rewrites     metrics.Counter
	Terminations metrics.Counter
	Connects     metrics.Counter
	Drops        metrics.Counter
	DialFailures metrics.Counter
	TrunkDeaths  metrics.Counter
	Transitions  metrics.Counter
	ApplyLatency *metrics.Histogram[time.Duration]
}

// paddedInt64 is an atomically accessed int64 padded to a cache line so
// probe claims on different areas never false-share.
type paddedInt64 struct {
	v int64
	_ [56]byte
}

// New builds a fleet with every device Idle. Call ConnectAt (or
// ConnectAll) to bring devices online.
func New(cfg Config) (*Fleet, error) {
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("megadevice: need at least one device")
	}
	if len(cfg.Areas) == 0 {
		return nil, fmt.Errorf("megadevice: need at least one area")
	}
	if len(cfg.POPs) == 0 {
		return nil, fmt.Errorf("megadevice: need at least one POP")
	}
	if cfg.StreamsPerDevice <= 0 {
		cfg.StreamsPerDevice = 1
	}
	if cfg.Sched == nil {
		cfg.Sched = sim.RealClock{}
		cfg.Async = true
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.RealClock{}
	}

	f := &Fleet{
		cfg:          cfg,
		sched:        cfg.Sched,
		clock:        cfg.Clock,
		policy:       cfg.Backoff.Normalized(),
		topics:       intern.New(),
		seedBase:     splitmix64(uint64(cfg.Seed) ^ 0xb1adeb1ade),
		trunks:       make(map[string]*trunk, len(cfg.POPs)),
		probeWall:    make([]paddedInt64, len(cfg.Areas)),
		ApplyLatency: metrics.NewHistogram[time.Duration](),
	}

	// Intern every area topic up front: handles are dense from 1 in area
	// order, and areaOf inverts them for the apply path.
	f.areaOf = make([]uint32, len(cfg.Areas)+1)
	f.topicOf = make([]uint32, len(cfg.Areas))
	for i, a := range cfg.Areas {
		h := f.topics.Intern(a.Topic)
		if int(h) >= len(f.areaOf) {
			return nil, fmt.Errorf("megadevice: duplicate area topic %q", a.Topic)
		}
		f.areaOf[h] = uint32(i)
		f.topicOf[i] = h
	}

	f.tab = newTables(cfg.Devices)
	if cfg.HomePOP != nil {
		for dev := 0; dev < cfg.Devices; dev++ {
			f.tab.popIdx[dev] = uint8(cfg.HomePOP(uint32(dev)) % len(cfg.POPs))
		}
	}
	assign := cfg.StreamArea
	if assign == nil {
		assign = func(dev uint32, k int) uint32 {
			return uint32((int(dev) + k) % len(cfg.Areas))
		}
	}
	for dev := 0; dev < cfg.Devices; dev++ {
		for k := 0; k < cfg.StreamsPerDevice; k++ {
			area := assign(uint32(dev), k)
			if int(area) >= len(cfg.Areas) {
				return nil, fmt.Errorf("megadevice: StreamArea(%d,%d) = %d out of range", dev, k, area)
			}
			f.tab.addStream(uint32(dev), f.topicOf[area])
		}
	}
	if cfg.RecordDeliveries {
		f.rec = make([][]uint64, len(f.tab.streamTopic))
	}
	return f, nil
}

// Streams returns the total stream count.
func (f *Fleet) Streams() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.tab.streamTopic)
}

// ConnectedCount returns the number of devices currently Connected.
func (f *Fleet) ConnectedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.connected
}

// State returns dev's current state.
func (f *Fleet) State(dev uint32) uint8 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tab.state[dev]
}

// ConnectAt schedules dev to dial at absolute scheduler time at. A no-op
// for devices already Connected or already pending a dial.
func (f *Fleet) ConnectAt(dev uint32, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.tab.state[dev] != StateIdle {
		return
	}
	f.tab.state[dev] = StateBackoff
	f.tab.attempt[dev] = 0
	f.pushLocked(transition{due: at.UnixNano(), dev: dev, kind: kDial})
}

// ConnectAll schedules every Idle device to dial, spread uniformly over
// window starting at the scheduler's current time (0 window = all at
// once). Spreading models organic arrival and keeps the dial burst from
// being one giant same-timestamp batch.
func (f *Fleet) ConnectAll(window time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	base := f.sched.Now().UnixNano()
	n := int64(f.cfg.Devices)
	for dev := 0; dev < f.cfg.Devices; dev++ {
		if f.tab.state[dev] != StateIdle {
			continue
		}
		off := int64(0)
		if window > 0 {
			off = int64(window) * int64(dev) / n
		}
		f.tab.state[uint32(dev)] = StateBackoff
		f.tab.attempt[dev] = 0
		f.pushLocked(transition{due: base + off, dev: uint32(dev), kind: kDial})
	}
}

// DropAt schedules an involuntary network drop (the edge connection dies;
// the device reconnects through backoff, rotating POPs) at time at.
func (f *Fleet) DropAt(dev uint32, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.pushLocked(transition{due: at.UnixNano(), dev: dev, kind: kDrop})
}

// OffAt schedules a voluntary disconnect at time at: the device detaches
// and goes Idle (no redial) until a future ConnectAt.
func (f *Fleet) OffAt(dev uint32, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.pushLocked(transition{due: at.UnixNano(), dev: dev, kind: kOff})
}

// pushLocked queues a transition and (re)arms the scheduler timer.
func (f *Fleet) pushLocked(tr transition) {
	f.heap.push(tr)
	f.armLocked()
}

// armLocked points the single scheduler timer at the earliest pending
// transition. Idempotent; cheap when the armed timer is already earliest.
func (f *Fleet) armLocked() {
	if len(f.heap) == 0 || f.closed {
		return
	}
	due := f.heap[0].due
	if f.timerArmed && f.timerDue <= due {
		return
	}
	if f.timerCancel != nil {
		f.timerCancel()
	}
	d := time.Duration(due - f.sched.Now().UnixNano())
	if d < 0 {
		d = 0
	}
	f.timerArmed = true
	f.timerDue = due
	f.timerCancel = f.sched.After(d, f.onTimer)
}

// onTimer services every transition that has come due, then rearms.
func (f *Fleet) onTimer() {
	f.mu.Lock()
	f.timerArmed = false
	f.timerCancel = nil
	if f.closed {
		f.mu.Unlock()
		return
	}
	now := f.sched.Now().UnixNano()
	for len(f.heap) > 0 && f.heap[0].due <= now {
		tr := f.heap.pop()
		f.Transitions.Inc()
		switch tr.kind {
		case kDial:
			f.dialLocked(tr.dev)
		case kDrop:
			f.dropLocked(tr.dev)
		case kOff:
			f.offLocked(tr.dev)
		}
	}
	f.armLocked()
	f.mu.Unlock()
}

// dialLocked is the Backoff->Connected (or Backoff->Backoff on failure)
// transition: dial the device's current POP through the shared trunk and
// attach every stream. Mirrors device.Device.Connect + reconnect: a dial
// failure rotates the POP and grows the backoff.
func (f *Fleet) dialLocked(dev uint32) {
	if f.tab.state[dev] != StateBackoff {
		return // stale: device connected or went Idle since scheduling
	}
	pop := f.cfg.POPs[int(f.tab.popIdx[dev])%len(f.cfg.POPs)]
	t, err := f.trunkForLocked(pop)
	if err != nil {
		f.DialFailures.Inc()
		f.tab.popIdx[dev]++ // prefer an alternate POP next attempt
		if f.tab.attempt[dev] < 255 {
			f.tab.attempt[dev]++
		}
		f.pushLocked(transition{
			due:  f.sched.Now().UnixNano() + f.backoffDelay(dev, f.tab.attempt[dev]),
			dev:  dev,
			kind: kDial,
		})
		return
	}
	f.tab.state[dev] = StateConnected
	f.tab.attempt[dev] = 0
	f.tab.trunk[dev] = t.id
	f.connected++
	f.Connects.Inc()
	for sid := f.tab.firstStream[dev]; sid != noStream; sid = f.tab.streamNext[sid] {
		f.attachLocked(t, sid)
	}
}

// dropLocked is the Connected->Backoff transition for an edge-network
// drop: detach, rotate POP, schedule the redial through backoff — exactly
// device.Device.onSessionLost + reconnect, without the goroutines.
func (f *Fleet) dropLocked(dev uint32) {
	if f.tab.state[dev] != StateConnected {
		return
	}
	f.detachDeviceLocked(dev)
	f.Drops.Inc()
	f.tab.state[dev] = StateBackoff
	f.tab.popIdx[dev]++
	f.tab.attempt[dev] = 0
	f.pushLocked(transition{
		due:  f.sched.Now().UnixNano() + f.backoffDelay(dev, 0),
		dev:  dev,
		kind: kDial,
	})
}

// offLocked sends a device Idle. From Backoff the pending kDial becomes a
// stale no-op (it checks state); from Connected the streams detach.
func (f *Fleet) offLocked(dev uint32) {
	switch f.tab.state[dev] {
	case StateConnected:
		f.detachDeviceLocked(dev)
	case StateIdle:
		return
	}
	f.tab.state[dev] = StateIdle
	f.tab.attempt[dev] = 0
}

// detachDeviceLocked removes every stream of dev from its trunk's shared
// subscriptions and clears the trunk binding. The trunk's real streams
// stay open (warm) even at refcount zero: topics churn back quickly under
// diurnal load, and re-instantiating a BRASS stream per swing would
// thrash the very tier the harness is measuring.
func (f *Fleet) detachDeviceLocked(dev uint32) {
	tid := f.tab.trunk[dev]
	if tid == noTrunk {
		return
	}
	t := f.trunkIDs[tid]
	for sid := f.tab.firstStream[dev]; sid != noStream; sid = f.tab.streamNext[sid] {
		f.detachStreamLocked(t, sid)
	}
	f.tab.trunk[dev] = noTrunk
	if f.tab.state[dev] == StateConnected {
		f.connected--
	}
}

// attachLocked adds a stream to the (trunk, topic) shared subscription,
// creating (and really subscribing) it on first use — attached first, then
// opened: the first batch can arrive before the subscribe call returns, and
// it fans out to whoever is attached. A stream a termination ended stays
// ended: its device dropped it and remains connected.
func (f *Fleet) attachLocked(t *trunk, sid uint32) {
	if f.tab.streamSubIdx[sid] == endedIndex {
		return
	}
	area := f.areaOf[f.tab.streamTopic[sid]]
	ts, fresh := t.sub(area)
	ts.mu.Lock()
	f.tab.streamSubIdx[sid] = uint32(len(ts.streams))
	ts.streams = append(ts.streams, sid)
	ts.mu.Unlock()
	if fresh {
		t.mu.Lock()
		t.openUnlock(ts, false)
	}
}

// detachStreamLocked swap-removes a stream from its shared subscription
// in O(1) via the stored membership index.
func (f *Fleet) detachStreamLocked(t *trunk, sid uint32) {
	area := f.areaOf[f.tab.streamTopic[sid]]
	ts := t.lookupSub(area)
	if ts == nil || f.tab.streamSubIdx[sid] == endedIndex {
		return
	}
	ts.mu.Lock()
	i := f.tab.streamSubIdx[sid]
	if i != noIndex && int(i) < len(ts.streams) && ts.streams[i] == sid {
		last := len(ts.streams) - 1
		moved := ts.streams[last]
		ts.streams[i] = moved
		f.tab.streamSubIdx[moved] = i
		ts.streams = ts.streams[:last]
	}
	ts.mu.Unlock()
	f.tab.streamSubIdx[sid] = noIndex
}

// backoffDelay is the delay before retry number attempt of key — a device's
// redial, or a shared stream's reopen after a lost upstream, keyed by its
// area: faults' one formula, its randomness hashed from (seed, key, attempt)
// instead of drawn from per-device RNG state.
func (f *Fleet) backoffDelay(key uint32, attempt uint8) int64 {
	d := f.policy.Delay(int(attempt), unitFrac(splitmix64(f.seedBase^uint64(key)<<8^uint64(attempt))))
	return int64(d)
}

// Service drains externally queued events: terminations (the shared stream
// leaves its trunk, its virtual streams end), trunk deaths (detach everyone
// attached, schedule their redials), shed episodes (reopen the shared
// stream) and lost upstreams (reopen it after its backoff) — in that order,
// so a stream that ended just before its trunk died is not redialed and an
// ended stream is not reopened. Engine-driven callers
// invoke it between engine bursts; Async fleets self-schedule it. Safe to
// call at any time.
func (f *Fleet) Service() {
	f.extMu.Lock()
	ends, closed, resumes, lost := f.extEnds, f.extClosed, f.extResumes, f.extLost
	f.extEnds, f.extClosed, f.extResumes, f.extLost = nil, nil, nil, nil
	f.extMu.Unlock()

	if len(ends)+len(closed) > 0 {
		f.mu.Lock()
		for _, ts := range ends {
			for _, sid := range ts.trunk.endSub(ts) {
				f.tab.streamSubIdx[sid] = endedIndex
			}
		}
		for _, t := range closed {
			f.drainTrunkLocked(t)
		}
		f.armLocked()
		f.mu.Unlock()
	}
	// Recovery answers Reopen once per episode, so each entry is one reopen.
	for _, ts := range resumes {
		ts.trunk.resumeSub(ts)
	}
	// A lost upstream reopens under the backoff, further apart each time
	// the POP reaches none.
	for _, ts := range lost {
		ts.mu.Lock()
		delay := f.backoffDelay(ts.area, ts.lost)
		if ts.lost < 255 {
			ts.lost++
		}
		ts.mu.Unlock()
		f.sched.After(time.Duration(delay), func() { ts.trunk.resumeSub(ts) })
	}
}

// drainTrunkLocked handles a dead trunk: every attached device goes to
// Backoff with a rotated POP and a jittered redial — the reconnect storm
// the storm scenario measures. Devices with several streams on the trunk
// transition once (guarded by state).
func (f *Fleet) drainTrunkLocked(t *trunk) {
	if f.trunks[t.pop] == t {
		delete(f.trunks, t.pop)
	}
	f.TrunkDeaths.Inc()
	now := f.sched.Now().UnixNano()
	t.mu.Lock()
	subs := t.subs
	t.subs = nil
	t.bySID = nil
	t.mu.Unlock()
	for _, ts := range subs {
		ts.mu.Lock()
		streams := ts.streams
		ts.streams = nil
		ts.mu.Unlock()
		for _, sid := range streams {
			f.tab.streamSubIdx[sid] = noIndex
			dev := f.tab.streamOwner[sid]
			if f.tab.state[dev] != StateConnected || f.tab.trunk[dev] != t.id {
				continue
			}
			f.tab.state[dev] = StateBackoff
			f.tab.trunk[dev] = noTrunk
			f.tab.popIdx[dev]++
			f.tab.attempt[dev] = 0
			f.connected--
			f.heap.push(transition{due: now + f.backoffDelay(dev, 0), dev: dev, kind: kDial})
		}
	}
}

// enqueue records an external event on its Service queue — a trunk death
// (f.extClosed), a shed episode (f.extResumes), a lost upstream (f.extLost)
// or a termination (f.extEnds) — from the trunk's read goroutine.
func enqueue[T any](f *Fleet, q *[]T, v T) {
	f.extMu.Lock()
	*q = append(*q, v)
	f.extMu.Unlock()
	if f.cfg.Async {
		f.sched.After(0, f.Service)
	}
}

// Close tears every trunk session down and waits for their read loops to
// finish, so table state is safe to inspect afterwards.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	if f.timerCancel != nil {
		f.timerCancel()
		f.timerCancel = nil
	}
	trunks := make([]*trunk, 0, len(f.trunks))
	for _, t := range f.trunks {
		trunks = append(trunks, t)
	}
	f.mu.Unlock()
	for _, t := range trunks {
		if t.sess != nil {
			_ = t.sess.Close()
			<-t.sess.Done()
		}
	}
}

// Footprint returns the bytes of model state backing the fleet: table
// columns, the transition heap, probe slots, and per-trunk shared-
// subscription bookkeeping (struct sizes plus membership arrays, with a
// conservative per-map-entry estimate). It excludes the optional
// RecordDeliveries trace (test instrumentation, unbounded by design) and
// the real cluster/runtime — the gate is about the MODEL's per-device
// cost.
func (f *Fleet) Footprint() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	b := f.tab.bytes()
	b += 16 * int64(cap(f.heap))
	b += 64 * int64(len(f.probeWall))
	const perTrunk = 256 // trunk struct, session bookkeeping
	const perSub = 136   // topicSub struct (104 B) + two map entries
	for _, t := range f.trunkIDs {
		b += perTrunk
		t.mu.Lock()
		for _, ts := range t.subs {
			b += perSub
			ts.mu.Lock()
			b += 4 * int64(cap(ts.streams))
			ts.mu.Unlock()
		}
		t.mu.Unlock()
	}
	return b
}

// BytesPerDevice is Footprint divided by the device count.
func (f *Fleet) BytesPerDevice() float64 {
	return float64(f.Footprint()) / float64(f.cfg.Devices)
}
