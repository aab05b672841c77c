// Package edge implements the stream-routing path between devices and
// BRASS hosts: POPs (points of presence) at the network edge and reverse
// proxies at the datacenter edge (paper §3.5, §4). Both are instances of
// the same Proxy type — a stream-level BURST relay that:
//
//   - routes each request-stream independently to an upstream chosen by a
//     pluggable Router (topic-based, load-based, or sticky);
//   - holds each stream's current subscription request — one copy, its
//     downstream server stream's, patched as it forwards rewrite deltas; the
//     upstream client stream keeps none — so it can repair streams after an
//     upstream failure (axiom 2 of §4);
//   - propagates flow_status deltas downstream so every participant learns
//     about failures and recoveries (axiom 1);
//   - garbage-collects stream state when the stream terminates or the
//     downstream connection dies.
//
// A relayed stream costs a relay struct and its upstream leg's ring at each
// proxy, never a goroutine: the downstream session's one writer forwards
// every leg that feeds it (burst.ClientStream.Forward), and only a repair,
// which waits on dials, runs on a goroutine of its own until it has a new leg.
package edge

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Dialer opens a byte transport to a named upstream target.
type Dialer interface {
	Dial(target string) (io.ReadWriteCloser, error)
}

// TransformDialer wraps another Dialer, applying a transform to every
// connection it opens — the hook for putting a link model or a byte counter
// between two tiers of any topology.
type TransformDialer struct {
	Inner     Dialer
	Transform func(io.ReadWriteCloser) io.ReadWriteCloser
}

// Dial implements Dialer.
func (d TransformDialer) Dial(target string) (io.ReadWriteCloser, error) {
	rwc, err := d.Inner.Dial(target)
	if err != nil {
		return nil, err
	}
	if d.Transform != nil {
		return d.Transform(rwc), nil
	}
	return rwc, nil
}

// ErrNoRoute is returned when a router cannot place a stream.
var ErrNoRoute = errors.New("edge: no route for stream")

// ErrUnknownTarget is returned when dialing an unregistered target.
var ErrUnknownTarget = errors.New("edge: unknown target")

// PipeNetwork is an in-process "network": targets register an accept
// callback, and Dial hands them one end of a Pipe. It stands in for
// the datacenter fabric in tests, examples, and the live cluster.
//
// Open pipes are tracked per target so SetDown can sever established
// connections, not just reject new dials — "host down" kills the sessions
// already running through it, exactly like a real machine failure.
type PipeNetwork struct {
	mu      sync.Mutex
	targets map[string]func(io.ReadWriteCloser)
	down    map[string]bool
	dials   map[string]int
	conns   map[string]map[*pipePair]bool
}

// NewPipeNetwork returns an empty network.
func NewPipeNetwork() *PipeNetwork {
	return &PipeNetwork{
		targets: make(map[string]func(io.ReadWriteCloser)),
		down:    make(map[string]bool),
		dials:   make(map[string]int),
		conns:   make(map[string]map[*pipePair]bool),
	}
}

// pipePair is one dialed connection's two pipe ends, tracked for severing.
type pipePair struct {
	n      *PipeNetwork
	target string
	c, s   net.Conn

	// closedC/closedS are guarded by n.mu; the pair unregisters itself
	// once both ends have closed.
	closedC, closedS bool
}

// closeEnd closes one end and unregisters the pair when both are gone.
func (pp *pipePair) closeEnd(client bool) error {
	pp.n.mu.Lock()
	if client {
		pp.closedC = true
	} else {
		pp.closedS = true
	}
	if pp.closedC && pp.closedS {
		delete(pp.n.conns[pp.target], pp)
	}
	pp.n.mu.Unlock()
	if client {
		return pp.c.Close()
	}
	return pp.s.Close()
}

// sever closes both ends (failure injection: the target machine died).
func (pp *pipePair) sever() {
	pp.n.mu.Lock()
	pp.closedC, pp.closedS = true, true
	delete(pp.n.conns[pp.target], pp)
	pp.n.mu.Unlock()
	_ = pp.c.Close()
	_ = pp.s.Close()
}

// pipeEnd is one side of a tracked pipe; Close releases only this end so
// the peer still observes an orderly EOF.
type pipeEnd struct {
	net.Conn
	pair   *pipePair
	client bool
}

// Close closes this end of the pipe.
func (e pipeEnd) Close() error { return e.pair.closeEnd(e.client) }

// Register makes target dialable; accept receives the server end of each
// new connection.
func (n *PipeNetwork) Register(target string, accept func(io.ReadWriteCloser)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.targets[target] = accept
}

// Unregister removes a target (host decommissioned).
func (n *PipeNetwork) Unregister(target string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.targets, target)
}

// SetDown marks a target unreachable without unregistering it (failure
// injection: the host exists but connections fail). Taking a target down
// also severs every established connection to it — its sessions die like
// the machine did, so "down" means down, not merely "no new dials".
func (n *PipeNetwork) SetDown(target string, down bool) {
	n.mu.Lock()
	n.down[target] = down
	var pairs []*pipePair
	if down {
		for pp := range n.conns[target] {
			pairs = append(pairs, pp)
		}
	}
	n.mu.Unlock()
	for _, pp := range pairs {
		pp.sever()
	}
}

// SetDownGroup flips the down state of many targets atomically: every down
// flag changes under ONE lock acquisition, so no concurrent Dial or
// DownStates call can observe a half-cut group — the whole region fails (or
// heals) as one event. The established connections of newly-down targets
// are severed after the flags are published, exactly as SetDown does.
//
// A region-cut implemented as a loop of per-target SetDown calls has a
// window where some of the region's targets refuse dials and others still
// accept them; routing decisions made inside that window land streams on
// hosts that are about to die. SetDownGroup closes the window.
func (n *PipeNetwork) SetDownGroup(down bool, targets ...string) {
	n.mu.Lock()
	var pairs []*pipePair
	for _, target := range targets {
		n.down[target] = down
		if down {
			for pp := range n.conns[target] {
				pairs = append(pairs, pp)
			}
		}
	}
	n.mu.Unlock()
	for _, pp := range pairs {
		pp.sever()
	}
}

// DownStates returns the down flags of targets as one atomic snapshot —
// all flags are read under a single lock acquisition, so a concurrent
// SetDownGroup is observed either entirely or not at all.
func (n *PipeNetwork) DownStates(targets ...string) []bool {
	out := make([]bool, len(targets))
	n.mu.Lock()
	for i, target := range targets {
		out[i] = n.down[target]
	}
	n.mu.Unlock()
	return out
}

// Dial implements Dialer.
func (n *PipeNetwork) Dial(target string) (io.ReadWriteCloser, error) {
	n.mu.Lock()
	accept, ok := n.targets[target]
	isDown := n.down[target]
	if ok && !isDown {
		n.dials[target]++
	}
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTarget, target)
	}
	if isDown {
		return nil, fmt.Errorf("edge: target %q unreachable", target)
	}
	c, s := Pipe()
	pp := &pipePair{n: n, target: target, c: c, s: s}
	n.mu.Lock()
	set := n.conns[target]
	if set == nil {
		set = make(map[*pipePair]bool)
		n.conns[target] = set
	}
	set[pp] = true
	// Re-check: a concurrent SetDown(true) between the availability check
	// and registration must not leave this pair alive.
	wentDown := n.down[target]
	n.mu.Unlock()
	if wentDown {
		pp.sever()
		return nil, fmt.Errorf("edge: target %q unreachable", target)
	}
	accept(pipeEnd{Conn: s, pair: pp, client: false})
	return pipeEnd{Conn: c, pair: pp, client: true}, nil
}

// Targets returns the registered target names.
func (n *PipeNetwork) Targets() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.targets))
	for t := range n.targets {
		out = append(out, t)
	}
	return out
}

// DialCount reports how many successful dials target has received.
func (n *PipeNetwork) DialCount(target string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dials[target]
}

// OpenConns reports how many established connections target currently has.
func (n *PipeNetwork) OpenConns(target string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns[target])
}

var (
	_ Dialer = (*PipeNetwork)(nil)
	_ Dialer = TransformDialer{}
)
