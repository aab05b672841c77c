package trace

import (
	"sort"
	"sync"

	"bladerunner/internal/sim"
)

// Collector is a bounded per-process ring of closed spans. Memory is fixed
// at construction (capacity * sizeof(SpanData) plus annotation strings);
// once full, the oldest span is overwritten and counted as evicted. The
// single short critical section per span keeps it lock-light: producers
// (event loops, relay pumps, device readers) never block on readers.
type Collector struct {
	mu      sync.Mutex
	ring    []SpanData
	next    int  // write cursor
	full    bool // ring has wrapped at least once
	evicted int64
}

// DefaultCapacity bounds a collector when the Plane config leaves it zero:
// 4096 spans ≈ a few hundred complete traces per process.
const DefaultCapacity = 4096

// NewCollector returns a collector holding up to capacity spans
// (DefaultCapacity when capacity <= 0).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Collector{ring: make([]SpanData, 0, capacity)}
}

func (c *Collector) add(d SpanData) {
	c.mu.Lock()
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, d)
	} else {
		c.ring[c.next] = d
		c.full = true
		c.evicted++
	}
	c.next++
	if c.next == cap(c.ring) {
		c.next = 0
	}
	c.mu.Unlock()
}

// Snapshot returns the collected spans oldest-first.
func (c *Collector) Snapshot() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SpanData, 0, len(c.ring))
	if c.full {
		out = append(out, c.ring[c.next:]...)
	}
	out = append(out, c.ring[:c.next]...)
	return out
}

// Evicted returns how many spans were overwritten since construction.
func (c *Collector) Evicted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// Config configures a Plane.
type Config struct {
	// Capacity is the per-process collector ring size (DefaultCapacity
	// when zero).
	Capacity int
	// Rate is the sampling probability applied at the WAS (0 disables
	// sampling entirely; 1 samples every mutation).
	Rate float64
	// Seed drives the sampler; equal seeds reproduce the same sampled IDs.
	Seed int64
	// Clock timestamps spans. All tracers of one plane share it, so spans
	// from different processes are directly comparable. Defaults to
	// sim.RealClock{}.
	Clock sim.Clock
}

// Plane owns the sampler and the per-process collectors of one deployment
// (one Cluster, one benchmark). Components receive tracers via
// Plane.Tracer(proc); the merger reads every collector via Gather.
type Plane struct {
	// Sampler stamps trace IDs onto mutations at the WAS. Non-nil only
	// when the configured rate is positive.
	Sampler *Sampler

	cfg Config

	mu      sync.Mutex
	order   []string // registration order, for deterministic Gather
	tracers map[string]*Tracer
}

// NewPlane builds a tracing plane from cfg.
func NewPlane(cfg Config) *Plane {
	if cfg.Clock == nil {
		cfg.Clock = sim.RealClock{}
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Plane{
		Sampler: NewSampler(cfg.Seed, cfg.Rate),
		cfg:     cfg,
		tracers: make(map[string]*Tracer),
	}
}

// Tracer returns (creating on first use) the tracer for the named process.
// A nil Plane returns a nil Tracer, which is inert.
func (p *Plane) Tracer(proc string) *Tracer {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if t, ok := p.tracers[proc]; ok {
		return t
	}
	t := &Tracer{proc: proc, clock: p.cfg.Clock, col: NewCollector(p.cfg.Capacity)}
	p.tracers[proc] = t
	p.order = append(p.order, proc)
	return t
}

// Gather snapshots every collector and returns all spans in a
// deterministic order (process name, then collection order within the
// process). This is the merger's input.
func (p *Plane) Gather() []SpanData {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	procs := append([]string(nil), p.order...)
	tracers := make([]*Tracer, len(procs))
	for i, name := range procs {
		tracers[i] = p.tracers[name]
	}
	p.mu.Unlock()
	sort.Sort(byProc{procs, tracers})
	var out []SpanData
	for _, t := range tracers {
		out = append(out, t.col.Snapshot()...)
	}
	return out
}

// Evicted sums ring evictions across all collectors — nonzero means the
// capacity was too small for the workload and traces may be incomplete.
func (p *Plane) Evicted() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, t := range p.tracers {
		n += t.col.Evicted()
	}
	return n
}

// byProc sorts parallel (procs, tracers) slices by process name.
type byProc struct {
	procs   []string
	tracers []*Tracer
}

func (b byProc) Len() int           { return len(b.procs) }
func (b byProc) Less(i, j int) bool { return b.procs[i] < b.procs[j] }
func (b byProc) Swap(i, j int) {
	b.procs[i], b.procs[j] = b.procs[j], b.procs[i]
	b.tracers[i], b.tracers[j] = b.tracers[j], b.tracers[i]
}
