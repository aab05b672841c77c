package faults

import (
	"io"
	"math/rand"
	"sync"
	"time"

	"bladerunner/internal/edge"
	"bladerunner/internal/metrics"
	"bladerunner/internal/sim"
)

// Direction selects which half of a link a directional fault applies to.
type Direction int

const (
	// ToTarget is the dialer→target half (device writes toward a POP).
	ToTarget Direction = iota
	// FromTarget is the target→dialer half (a POP's pushes to devices).
	FromTarget
)

// String names the direction.
func (d Direction) String() string {
	if d == ToTarget {
		return "to-target"
	}
	return "from-target"
}

// link is the mutable fault state of one target's links. All fields are
// guarded by FaultNetwork.mu.
type link struct {
	latency   sim.Dist
	dropProb  float64
	blackhole [2]bool
	// stall is non-nil while reads on this link are stalled; it is closed
	// to release the stalled readers.
	stall chan struct{}
	conns map[*faultConn]bool
}

// FaultNetwork wraps an edge.PipeNetwork, tracking every live connection so
// faults apply to *established* streams, not just new dials. It implements
// edge.Dialer; components built on PipeNetwork run unchanged on top of it.
//
// Faults are keyed by dial target, the network's addressable unit:
//
//   - SetLatency: per-write delay drawn from a seeded distribution.
//   - SetDropProb: each write may trigger a corrupt-free cut of its
//     connection (the byte stream is never corrupted; the transport dies,
//     exactly the mid-stream drops of Fig 10).
//   - SetBlackhole: writes in one direction are silently swallowed — an
//     asymmetric partition where one side still believes the link is up.
//   - Stall/Unstall: reads park until released, modelling a slow reader
//     that backpressures the sender.
//   - Cut/Heal: the target goes hard down — new dials fail AND every
//     established pipe is severed (via PipeNetwork.SetDown).
//
// The RNG is seeded: under a single-threaded sim.Engine the entire fault
// sequence is deterministic; under real goroutines the *schedule* (Plan)
// remains deterministic while per-write sampling follows the race winner.
type FaultNetwork struct {
	inner *edge.PipeNetwork
	sched sim.Scheduler

	mu    sync.Mutex
	rng   *rand.Rand
	links map[string]*link

	// Metrics: every injected fault is counted, so chaos runs can assert
	// the plane actually fired and experiments can report fault volume.
	InjectedCuts     metrics.Counter
	InjectedDrops    metrics.Counter
	BlackholedWrites metrics.Counter
	DelayedWrites    metrics.Counter
	StalledReads     metrics.Counter
}

// NewFaultNetwork wraps inner. sched drives latency sleeps and Plan
// timelines (nil = wall clock); seed drives all probabilistic faults.
func NewFaultNetwork(inner *edge.PipeNetwork, sched sim.Scheduler, seed int64) *FaultNetwork {
	if sched == nil {
		sched = sim.RealClock{}
	}
	return &FaultNetwork{
		inner: inner,
		sched: sched,
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[string]*link),
	}
}

// Inner returns the wrapped PipeNetwork (for registration helpers that
// need the concrete type).
func (n *FaultNetwork) Inner() *edge.PipeNetwork { return n.inner }

// Register makes target dialable through the fault plane: the server end
// of every accepted connection is wrapped so faults apply to both halves.
func (n *FaultNetwork) Register(target string, accept func(io.ReadWriteCloser)) {
	n.inner.Register(target, func(rwc io.ReadWriteCloser) {
		accept(n.track(target, rwc, FromTarget))
	})
}

// Unregister removes a target.
func (n *FaultNetwork) Unregister(target string) { n.inner.Unregister(target) }

// Dial implements edge.Dialer; the client end is wrapped in the fault
// plane.
func (n *FaultNetwork) Dial(target string) (io.ReadWriteCloser, error) {
	rwc, err := n.inner.Dial(target)
	if err != nil {
		return nil, err
	}
	return n.track(target, rwc, ToTarget), nil
}

// DialCount reports successful dials to target (delegates to the inner
// network, which counts them).
func (n *FaultNetwork) DialCount(target string) int { return n.inner.DialCount(target) }

// linkLocked returns target's fault state, creating it on first use.
func (n *FaultNetwork) linkLocked(target string) *link {
	l := n.links[target]
	if l == nil {
		l = &link{conns: make(map[*faultConn]bool)}
		n.links[target] = l
	}
	return l
}

func (n *FaultNetwork) track(target string, rwc io.ReadWriteCloser, dir Direction) *faultConn {
	c := &faultConn{net: n, target: target, dir: dir, inner: rwc, done: make(chan struct{})}
	n.mu.Lock()
	n.linkLocked(target).conns[c] = true
	n.mu.Unlock()
	return c
}

// OpenConns returns the number of live tracked connections to target
// (both ends of each pipe count separately).
func (n *FaultNetwork) OpenConns(target string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l := n.links[target]; l != nil {
		return len(l.conns)
	}
	return 0
}

// SetLatency applies a per-write latency distribution to target's links
// (nil clears it). Latency sleeps block the writer via sim.Sleep, so under
// a virtual Scheduler the writer must not be the engine goroutine.
func (n *FaultNetwork) SetLatency(target string, d sim.Dist) {
	n.mu.Lock()
	n.linkLocked(target).latency = d
	n.mu.Unlock()
}

// SetDropProb makes each write to/from target cut its connection with
// probability p — a corrupt-free mid-stream failure.
func (n *FaultNetwork) SetDropProb(target string, p float64) {
	n.mu.Lock()
	n.linkLocked(target).dropProb = p
	n.mu.Unlock()
}

// SetBlackhole silently swallows writes in one direction of target's
// links: an asymmetric partition. The writer sees success; nothing
// arrives.
func (n *FaultNetwork) SetBlackhole(target string, dir Direction, on bool) {
	n.mu.Lock()
	n.linkLocked(target).blackhole[dir] = on
	n.mu.Unlock()
}

// Stall parks all reads on target's links until Unstall — a slow reader
// whose backpressure propagates to senders.
func (n *FaultNetwork) Stall(target string) {
	n.mu.Lock()
	l := n.linkLocked(target)
	if l.stall == nil {
		l.stall = make(chan struct{})
	}
	n.mu.Unlock()
}

// Unstall releases readers parked by Stall.
func (n *FaultNetwork) Unstall(target string) {
	n.mu.Lock()
	l := n.linkLocked(target)
	ch := l.stall
	l.stall = nil
	n.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// Cut takes target hard down: new dials fail and every established pipe is
// severed (both the inner pipes and the fault-plane wrappers, so stalled
// readers wake too).
func (n *FaultNetwork) Cut(target string) {
	n.InjectedCuts.Inc()
	n.inner.SetDown(target, true)
	n.mu.Lock()
	var conns []*faultConn
	if l := n.links[target]; l != nil {
		for c := range l.conns {
			conns = append(conns, c)
		}
	}
	n.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// Heal makes target dialable again. Established connections severed by Cut
// stay dead: recovery is the client's job (resubscribe with the stored
// request), which is exactly what the chaos suite exercises.
func (n *FaultNetwork) Heal(target string) {
	n.inner.SetDown(target, false)
}

// CutGroup takes every target hard down as ONE event: the inner network's
// down flags flip under a single lock acquisition (no half-cut window —
// see edge.PipeNetwork.SetDownGroup), then the severed pipes and the
// fault-plane wrappers are closed. One injected cut is counted per target
// so fault-volume accounting matches the per-target Cut path.
func (n *FaultNetwork) CutGroup(targets ...string) {
	n.InjectedCuts.Add(int64(len(targets)))
	n.inner.SetDownGroup(true, targets...)
	n.mu.Lock()
	var conns []*faultConn
	for _, target := range targets {
		if l := n.links[target]; l != nil {
			for c := range l.conns {
				conns = append(conns, c)
			}
		}
	}
	n.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// HealGroup makes every target dialable again atomically — the heal is one
// event, mirroring CutGroup.
func (n *FaultNetwork) HealGroup(targets ...string) {
	n.inner.SetDownGroup(false, targets...)
}

var _ edge.Dialer = (*FaultNetwork)(nil)

// faultConn is one tracked half of a connection, applying its target's
// current fault state to every read and write.
type faultConn struct {
	net    *FaultNetwork
	target string
	dir    Direction
	inner  io.ReadWriteCloser

	mu   sync.Mutex
	dead bool
	done chan struct{}
}

func (c *faultConn) Read(p []byte) (int, error) {
	for {
		c.mu.Lock()
		dead := c.dead
		c.mu.Unlock()
		if dead {
			return 0, io.ErrClosedPipe
		}
		c.net.mu.Lock()
		var stall chan struct{}
		if l := c.net.links[c.target]; l != nil {
			stall = l.stall
		}
		c.net.mu.Unlock()
		if stall == nil {
			break
		}
		c.net.StalledReads.Inc()
		select {
		case <-stall:
		case <-c.done:
			return 0, io.ErrClosedPipe
		}
	}
	return c.inner.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return 0, io.ErrClosedPipe
	}
	var (
		delay time.Duration
		drop  bool
		hole  bool
	)
	c.net.mu.Lock()
	if l := c.net.links[c.target]; l != nil {
		if l.latency != nil {
			delay = l.latency.Sample(c.net.rng)
		}
		if l.dropProb > 0 && c.net.rng.Float64() < l.dropProb {
			drop = true
		}
		hole = l.blackhole[c.dir]
	}
	c.net.mu.Unlock()
	if drop {
		// Corrupt-free cut: the connection dies cleanly mid-stream; no
		// partial bytes ever corrupt the peer's framing.
		c.net.InjectedDrops.Inc()
		_ = c.Close()
		return 0, io.ErrClosedPipe
	}
	if delay > 0 {
		c.net.DelayedWrites.Inc()
		sim.Sleep(c.net.sched, delay)
	}
	if hole {
		c.net.BlackholedWrites.Inc()
		return len(p), nil
	}
	return c.inner.Write(p)
}

func (c *faultConn) Close() error {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return nil
	}
	c.dead = true
	c.mu.Unlock()
	close(c.done)
	c.net.mu.Lock()
	if l := c.net.links[c.target]; l != nil {
		delete(l.conns, c)
	}
	c.net.mu.Unlock()
	return c.inner.Close()
}
