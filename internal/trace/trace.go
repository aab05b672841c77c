// Package trace is the end-to-end event-tracing plane: per-hop spans that
// follow one sampled mutation from the WAS publish call, through Pylon
// fan-out and the BRASS payload fetch, across the BURST wire and every edge
// proxy hop, down to the device apply. It is stdlib-only and entirely
// sim.Clock-driven, so the same traces come out of wall-clock runs and
// virtual-time experiments.
//
// The design center is "free when off": every component holds a *Tracer
// that may be nil, and every event carries an ID that is zero unless the
// seeded sampler selected it. Starting a span on a nil tracer or a zero ID
// returns an inactive value-type Span whose methods are no-ops — no
// allocation, no atomic, no branch beyond the guard — which is what keeps
// the PylonPublish/HotTopicFanout hot paths at 0 allocs/op with tracing
// disabled.
//
// Propagation uses three carriers (see DESIGN.md §9a):
//
//   - pylon.Event.Trace — WAS → Pylon → BRASS (in-process hand-off)
//   - burst.Delta.Trace — BRASS → proxies → device (on the wire, per delta)
//   - the "trace-stream" BURST subscribe header — a stable stream identity
//     stamped by the device, surviving rewrite_request and resubscribe, so
//     recovery paths remain attributable in traces.
package trace

import (
	"strconv"
	"sync"
	"time"

	"bladerunner/internal/sim"
)

// ID identifies one sampled mutation end to end. The zero ID means "not
// sampled"; every span-producing call site checks it before doing work.
type ID uint64

// Canonical hop names. Parent links between them form the span tree the
// merger assembles; the comment on each names its parent hop.
const (
	HopPublish = "was.publish"   // root: WAS Publish call until the Pylon accepts the event
	HopFanout  = "pylon.fanout"  // parent was.publish: subscriber resolution + host delivery
	HopDeliver = "brass.deliver" // parent pylon.fanout: instance event-loop turn for the event
	HopFetch   = "brass.fetch"   // parent brass.deliver: payload fetch incl. the payload cache
	HopPrivacy = "was.privacy"   // parent brass.fetch: per-viewer visibility check
	HopResolve = "was.resolve"   // parent brass.fetch: viewer-independent payload resolution
	HopFlush   = "burst.flush"   // parent brass.fetch: BURST frame encode + send
	HopRelay   = "edge.relay"    // parent burst.flush: one span per proxy the batch crosses
	HopApply   = "device.apply"  // parent burst.flush: device-side decode and apply
)

// EdgePathHops is the hop set a trace must cover to count as a complete
// end-to-end edge-path trace: publish → fan-out → payload fetch → flush →
// proxy relay → device apply.
var EdgePathHops = []string{HopPublish, HopFanout, HopFetch, HopFlush, HopRelay, HopApply}

// Sampler decides, deterministically under a seed, which mutations get a
// trace context. It is safe for concurrent use; a nil Sampler never
// samples.
type Sampler struct {
	mu    sync.Mutex
	state uint64
	// threshold is the sampling cut in the xorshift output space;
	// ^uint64(0) means "always sample".
	threshold uint64
	always    bool
}

// NewSampler returns a sampler selecting roughly the given rate of
// mutations (rate <= 0 never samples, rate >= 1 always samples). Two
// samplers built from the same seed issue the same ID sequence, which is
// what makes seeded brtrace runs reproduce span-for-span.
func NewSampler(seed int64, rate float64) *Sampler {
	if rate <= 0 {
		return nil
	}
	s := &Sampler{state: uint64(seed)*0x9e3779b97f4a7c15 + 0x0b1ade}
	if rate >= 1 {
		s.always = true
	} else {
		s.threshold = uint64(rate * float64(^uint64(0)))
	}
	return s
}

// Trace returns a fresh nonzero ID if this mutation is sampled, else 0.
func (s *Sampler) Trace() ID {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	// xorshift64: full-period, seed-deterministic, never yields 0 from a
	// nonzero state (the constructor guarantees a nonzero start).
	x := s.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.state = x
	s.mu.Unlock()
	if s.always || x <= s.threshold {
		return ID(x)
	}
	return 0
}

// Attr is one structured span annotation.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// SpanData is one closed span as stored in a collector ring.
type SpanData struct {
	Trace  ID
	Hop    string // canonical hop name (HopPublish, ...)
	Proc   string // collecting process (pylon, brass-us-east-0, proxy-..., device-...)
	Parent string // parent hop name ("" for roots)
	Start  time.Time
	End    time.Time
	Attrs  []Attr
}

// Duration returns the span's wall (or virtual) time.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Attr returns the value of the named annotation ("" when absent).
func (d SpanData) Attr(key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Tracer opens spans for one process and deposits them in that process's
// collector. A nil *Tracer is valid and inert, so call sites never branch
// on "is tracing configured" beyond the method's own guard.
type Tracer struct {
	proc  string
	clock sim.Clock
	col   *Collector
}

// Start opens a span for the given trace at the given hop. It returns an
// inactive no-op span when the tracer is nil or the event is unsampled
// (id == 0); the returned value never escapes to the heap in that case.
//
// off; Span is a value type on both branches.
//
//brlint:hotpath the inactive-span path is what keeps tracing free when
func (t *Tracer) Start(id ID, hop, parent string) Span {
	if t == nil || id == 0 {
		return Span{}
	}
	return Span{
		tr:    t,
		id:    id,
		hop:   hop,
		paren: parent,
		start: t.clock.Now(),
	}
}

// Span is one in-flight hop measurement. The zero Span is inactive and all
// its methods are no-ops. Spans are values: copy freely, but End exactly
// one copy (the brlint span-must-end rule enforces that every Start has an
// End on each return path).
type Span struct {
	tr    *Tracer
	id    ID
	hop   string
	paren string
	start time.Time
	attrs []Attr
	ended bool
}

// Active reports whether the span is recording.
func (s *Span) Active() bool { return s.tr != nil && !s.ended }

// Annotate attaches a key/value annotation (no-op when inactive).
//
// sampled.
//
//brlint:hotpath called on every publish/deliver; free unless the event was
func (s *Span) Annotate(key, value string) {
	if s.tr == nil || s.ended {
		return
	}
	//brlint:allow(hot-path-alloc) active spans only: the append runs for sampled events, a rate the sampler caps; unsampled events return on the nil guard above
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// AnnotateInt attaches an integer annotation (no-op when inactive).
//
// sampled.
//
//brlint:hotpath called on every publish/deliver; free unless the event was
func (s *Span) AnnotateInt(key string, v int64) {
	if s.tr == nil || s.ended {
		return
	}
	//brlint:allow(hot-path-alloc) active spans only: append plus integer formatting run for sampled events; unsampled events return on the nil guard above
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.FormatInt(v, 10)})
}

// Drop annotates the span with the canonical shed/drop marker used across
// the overload-control plane ("drop" = reason), so assembled traces show
// exactly where an update left the pipeline. No-op when inactive.
//
//brlint:hotpath shed decisions sit on admission-controlled fast paths.
func (s *Span) Drop(reason string) {
	s.Annotate("drop", reason)
}

// End closes the span and hands it to the process collector. Ending an
// inactive or already-ended span is a no-op, so defer sp.End() is always
// safe.
//
// the event was sampled.
//
//brlint:hotpath closed on every publish/deliver return path; free unless
func (s *Span) End() {
	if s.tr == nil || s.ended {
		return
	}
	s.ended = true
	//brlint:allow(hot-path-alloc) active spans only: the collector ring append runs for sampled events; unsampled events return on the nil guard above
	s.tr.col.add(SpanData{
		Trace:  s.id,
		Hop:    s.hop,
		Proc:   s.tr.proc,
		Parent: s.paren,
		Start:  s.start,
		End:    s.tr.clock.Now(),
		Attrs:  s.attrs,
	})
}
