package edge

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// dialTimeout bounds a TCPNetwork's connection establishment.
const dialTimeout = 5 * time.Second

// TCPNetwork is a Dialer backed by real TCP sockets: the multi-process
// counterpart of PipeNetwork. Target names resolve through an address book
// (target -> host:port), so the code above the Dialer seam — devices,
// proxies, megadevice trunks — is identical in-process and over the wire.
//
// The serving side calls Listen, which binds a real net.Listener and feeds
// accepted conns to the accept callback, mirroring PipeNetwork.Register's
// contract. Fault injection (SetDown, sever) is deliberately absent: faults
// on a real network are injected by killing processes, which is what the
// multi-process chaos tests do.
type TCPNetwork struct {
	mu     sync.Mutex
	addrs  map[string]string // target -> dial address
	lns    map[string]net.Listener
	closed bool

	wg sync.WaitGroup // accept loops
}

// NewTCPNetwork returns a network with an empty address book.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{
		addrs: make(map[string]string),
		lns:   make(map[string]net.Listener),
	}
}

// SetAddr maps a target name to a dial address. Existing entries are
// replaced, so bootstrap config can be applied incrementally.
func (n *TCPNetwork) SetAddr(target, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addrs[target] = addr
}

// Listen binds addr (e.g. "127.0.0.1:0") for target and feeds every
// accepted connection to accept. It returns the bound address — with ":0"
// that is how the caller learns the kernel-assigned port — and records it
// in the address book so in-process peers can dial the target by name.
func (n *TCPNetwork) Listen(target, addr string, accept func(io.ReadWriteCloser)) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("edge: listen %s for %q: %w", addr, target, err)
	}
	bound := ln.Addr().String()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = ln.Close()
		return "", fmt.Errorf("edge: network closed")
	}
	if old, ok := n.lns[target]; ok {
		_ = old.Close()
	}
	n.lns[target] = ln
	n.addrs[target] = bound
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			tuneConn(c)
			accept(c)
		}
	}()
	return bound, nil
}

// Serve is Listen on a loopback ephemeral port — the form tests use.
func (n *TCPNetwork) Serve(target string, accept func(io.ReadWriteCloser)) (string, error) {
	return n.Listen(target, "127.0.0.1:0", accept)
}

// Dial implements Dialer: it resolves target through the address book and
// opens a real TCP connection.
func (n *TCPNetwork) Dial(target string) (io.ReadWriteCloser, error) {
	n.mu.Lock()
	addr, ok := n.addrs[target]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTarget, target)
	}
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("edge: dial %q (%s): %w", target, addr, err)
	}
	tuneConn(c)
	return c, nil
}

// Close shuts every listener down and waits for the accept loops to exit.
// Established connections are owned by their sessions and are not touched.
func (n *TCPNetwork) Close() {
	n.mu.Lock()
	n.closed = true
	lns := make([]net.Listener, 0, len(n.lns))
	for _, ln := range n.lns {
		lns = append(lns, ln)
	}
	n.lns = make(map[string]net.Listener)
	n.mu.Unlock()
	for _, ln := range lns {
		_ = ln.Close()
	}
	n.wg.Wait()
}

// tuneConn applies the latency-sensitive socket options BURST wants. A
// session's writer already puts everything that queued behind a write into
// the next one, and never waits for more: Nagle's wait for an ACK would only
// add a round trip to what it sends alone.
func tuneConn(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
		_ = tc.SetKeepAlive(true)
	}
}

var _ Dialer = (*TCPNetwork)(nil)
