package region

import (
	"fmt"
	"io"
	"sync"

	"bladerunner/internal/edge"
	"bladerunner/internal/sim"
)

// Gate applies the region topology to the dial plane: every dial is
// checked against the current link state, cross-region connections pay the
// link's sampled per-write latency, and established cross-region
// connections are tracked so a partition severs them — a cut link kills
// the sessions already running over it, exactly like SetDown does for a
// dead host.
type Gate struct {
	topo  *Topology
	sched sim.Scheduler

	mu       sync.Mutex
	regionOf map[string]string           // target → region
	conns    map[Link]map[*gateConn]bool // live cross-region conns by link
}

// NewGate returns a Gate over topo. sched drives the latency model; nil
// means the wall clock.
func NewGate(topo *Topology, sched sim.Scheduler) *Gate {
	if sched == nil {
		sched = sim.RealClock{}
	}
	return &Gate{
		topo:     topo,
		sched:    sched,
		regionOf: make(map[string]string),
		conns:    make(map[Link]map[*gateConn]bool),
	}
}

// RegisterTarget records which region a dialable target lives in. Targets
// never registered are treated as living in the dialer's own region (the
// gate stays out of the way).
func (g *Gate) RegisterTarget(target, region string) {
	g.mu.Lock()
	g.regionOf[target] = region
	g.mu.Unlock()
}

// RegionOf returns the registered region for target ("" if unknown).
func (g *Gate) RegionOf(target string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.regionOf[target]
}

// TargetsIn returns the registered targets homed in region.
func (g *Gate) TargetsIn(region string) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []string
	for t, r := range g.regionOf {
		if r == region {
			out = append(out, t)
		}
	}
	return out
}

// DialerFor returns a Dialer that dials through inner on behalf of a
// caller in region src. Intra-region dials pass through untouched;
// cross-region dials are refused while the link is down and otherwise pay
// the link's sampled latency on every write.
func (g *Gate) DialerFor(src string, inner edge.Dialer) edge.Dialer {
	return &gatedDialer{g: g, src: src, inner: inner}
}

type gatedDialer struct {
	g     *Gate
	src   string
	inner edge.Dialer
}

// Dial implements edge.Dialer.
func (d *gatedDialer) Dial(target string) (io.ReadWriteCloser, error) {
	g := d.g
	g.mu.Lock()
	dst, known := g.regionOf[target]
	g.mu.Unlock()
	if !known || dst == d.src {
		return d.inner.Dial(target)
	}
	if !g.topo.LinkUp(d.src, dst) {
		return nil, fmt.Errorf("region: link %s→%s down dialing %q", d.src, dst, target)
	}
	rwc, err := d.inner.Dial(target)
	if err != nil {
		return nil, err
	}
	gc := &gateConn{g: g, link: Link{d.src, dst}, inner: rwc}
	g.mu.Lock()
	// Re-check under the lock: a cut between LinkUp and registration must
	// not leave this connection alive across a partition.
	if !g.topo.LinkUp(d.src, dst) {
		g.mu.Unlock()
		_ = rwc.Close()
		return nil, fmt.Errorf("region: link %s→%s down dialing %q", d.src, dst, target)
	}
	set := g.conns[gc.link]
	if set == nil {
		set = make(map[*gateConn]bool)
		g.conns[gc.link] = set
	}
	set[gc] = true
	g.mu.Unlock()
	return gc, nil
}

// gateConn is a cross-region connection: writes pay the link's sampled
// one-way latency at write time, and a partition severs it.
type gateConn struct {
	g     *Gate
	link  Link
	inner io.ReadWriteCloser

	mu   sync.Mutex
	dead bool
}

// Read passes through until severed.
func (c *gateConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return 0, io.ErrClosedPipe
	}
	return c.inner.Read(p)
}

// Write sleeps the link's current sampled latency, then forwards — unless
// the link was cut while sleeping.
func (c *gateConn) Write(p []byte) (int, error) {
	if d := c.g.topo.SampleLatency(c.link.Src, c.link.Dst); d > 0 {
		sim.Sleep(c.g.sched, d)
	}
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return 0, io.ErrClosedPipe
	}
	return c.inner.Write(p)
}

// Close unregisters and closes the transport.
func (c *gateConn) Close() error {
	c.g.mu.Lock()
	delete(c.g.conns[c.link], c)
	c.g.mu.Unlock()
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	return c.inner.Close()
}

// sever kills the connection from the gate side (link cut).
func (c *gateConn) sever() {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	_ = c.inner.Close()
}

// SeverLink kills every established connection crossing src→dst (in that
// direction). Call after Topology.SetLinkDown so new dials are already
// refused when the old sessions die.
func (g *Gate) SeverLink(src, dst string) {
	g.severLinks(Link{src, dst})
}

// SeverRegion kills every established cross-region connection into or out
// of region r.
func (g *Gate) SeverRegion(r string) {
	g.mu.Lock()
	var links []Link
	for l := range g.conns {
		if l.Src == r || l.Dst == r {
			links = append(links, l)
		}
	}
	g.mu.Unlock()
	g.severLinks(links...)
}

func (g *Gate) severLinks(links ...Link) {
	g.mu.Lock()
	var victims []*gateConn
	for _, l := range links {
		for gc := range g.conns[l] {
			victims = append(victims, gc)
		}
		delete(g.conns, l)
	}
	g.mu.Unlock()
	for _, gc := range victims {
		gc.sever()
	}
}
