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
	conns   map[string]map[*pipePair]bool
}

// NewPipeNetwork returns an empty network.
func NewPipeNetwork() *PipeNetwork {
	return &PipeNetwork{
		targets: make(map[string]func(io.ReadWriteCloser)),
		down:    make(map[string]bool),
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

// SetDown marks targets unreachable (down) or reachable again without
// unregistering them (failure injection: the host exists but connections
// fail). Taking a target down also severs every established connection to
// it — its sessions die like the machine did, so "down" means down, not
// merely "no new dials".
//
// Every flag flips under ONE lock acquisition, so no concurrent Dial can
// observe a half-cut group — a whole region fails (or heals) as one event.
// A region cut made of per-target calls has a window where some of its
// targets refuse dials and others still accept them; routing decisions made
// inside it land streams on hosts that are about to die.
func (n *PipeNetwork) SetDown(down bool, targets ...string) {
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

// Dial implements Dialer.
func (n *PipeNetwork) Dial(target string) (io.ReadWriteCloser, error) {
	n.mu.Lock()
	accept, ok := n.targets[target]
	isDown := n.down[target]
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

var (
	_ Dialer = (*PipeNetwork)(nil)
	_ Dialer = TransformDialer{}
)
