package faults

import (
	"io"
	"sync"

	"bladerunner/internal/edge"
	"bladerunner/internal/metrics"
	"bladerunner/internal/sim"
)

// FaultNetwork is an edge.PipeNetwork plus the two faults the chaos suite
// drives, keyed by dial target, the network's addressable unit:
//
//   - Cut/Heal: the targets go hard down — new dials fail AND every
//     established pipe is severed (edge.PipeNetwork.SetDown).
//   - Stall/Unstall: reads that start while a target is stalled park until
//     released, modelling a slow reader that backpressures the sender.
//
// It implements edge.Dialer; components built on PipeNetwork run unchanged
// on top of it. The pipe network keeps the one registry of live
// connections: a stalled read parks on its target's stall channel or on its
// own conn's close, and Unstall and Cut wake the channel.
type FaultNetwork struct {
	inner *edge.PipeNetwork
	sched sim.Scheduler

	mu sync.Mutex
	// stalls holds, for each stalled target, the channel its parked reads
	// wait on; closing it releases them.
	stalls map[string]chan struct{}

	// Every injected fault is counted, so chaos runs can assert the plane
	// actually fired.
	InjectedCuts metrics.Counter
	StalledReads metrics.Counter
}

// NewFaultNetwork wraps inner. sched drives Plan timelines (nil = wall
// clock).
func NewFaultNetwork(inner *edge.PipeNetwork, sched sim.Scheduler) *FaultNetwork {
	if sched == nil {
		sched = sim.RealClock{}
	}
	return &FaultNetwork{inner: inner, sched: sched, stalls: make(map[string]chan struct{})}
}

// Register makes target dialable through the fault plane: the server end
// of every accepted connection is wrapped so a stall parks both halves.
func (n *FaultNetwork) Register(target string, accept func(io.ReadWriteCloser)) {
	n.inner.Register(target, func(rwc io.ReadWriteCloser) {
		accept(n.wrap(target, rwc))
	})
}

// Dial implements edge.Dialer; the client end is wrapped in the fault
// plane.
func (n *FaultNetwork) Dial(target string) (io.ReadWriteCloser, error) {
	rwc, err := n.inner.Dial(target)
	if err != nil {
		return nil, err
	}
	return n.wrap(target, rwc), nil
}

func (n *FaultNetwork) wrap(target string, rwc io.ReadWriteCloser) *faultConn {
	return &faultConn{ReadWriteCloser: rwc, net: n, target: target, done: make(chan struct{})}
}

// Stall parks all reads on target's links that start before Unstall — a
// slow reader whose backpressure propagates to senders.
//
//brlint:allow(test-only-export) a fault-plane knob; tests inject faults with it
func (n *FaultNetwork) Stall(target string) {
	n.mu.Lock()
	if n.stalls[target] == nil {
		n.stalls[target] = make(chan struct{})
	}
	n.mu.Unlock()
}

// Unstall releases readers parked by Stall.
//
//brlint:allow(test-only-export) a fault-plane knob; tests inject faults with it
func (n *FaultNetwork) Unstall(target string) {
	n.mu.Lock()
	ch := n.stalls[target]
	delete(n.stalls, target)
	n.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// Cut takes every target hard down as ONE event: new dials fail and every
// established pipe is severed, with no half-cut window between targets.
// Reads parked in a stall wake onto their severed pipes; the targets stay
// stalled for the links dialed after Heal.
func (n *FaultNetwork) Cut(targets ...string) {
	n.InjectedCuts.Add(int64(len(targets)))
	n.inner.SetDown(true, targets...)
	n.mu.Lock()
	for _, target := range targets {
		if ch := n.stalls[target]; ch != nil {
			close(ch)
			n.stalls[target] = make(chan struct{})
		}
	}
	n.mu.Unlock()
}

// Heal makes every target dialable again as one event. Connections severed
// by Cut stay dead: recovery is the client's job (resubscribe with the
// stored request), which is exactly what the chaos suite exercises.
func (n *FaultNetwork) Heal(targets ...string) {
	n.inner.SetDown(false, targets...)
}

var _ edge.Dialer = (*FaultNetwork)(nil)

// faultConn is one wrapped half of a connection: its reads honour its
// target's stall.
type faultConn struct {
	io.ReadWriteCloser
	net    *FaultNetwork
	target string

	closeOnce sync.Once
	done      chan struct{} // closed by Close, waking a stalled read
}

func (c *faultConn) Read(p []byte) (int, error) {
	c.net.mu.Lock()
	stall := c.net.stalls[c.target]
	c.net.mu.Unlock()
	if stall != nil {
		c.net.StalledReads.Inc()
		select {
		case <-stall:
		case <-c.done:
			return 0, io.ErrClosedPipe
		}
	}
	return c.ReadWriteCloser.Read(p)
}

func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return c.ReadWriteCloser.Close()
}
