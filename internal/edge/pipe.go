package edge

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// PipeBuffer is how many bytes each direction of a Pipe holds before a Write
// blocks: the in-process stand-in for a TCP socket buffer. A direction's
// buffer grows to it on demand, so an idle link costs next to nothing.
const PipeBuffer = 64 << 10

// errNoDeadline is what a Pipe end's deadline setters return: nothing in the
// system sets a deadline on an in-process link.
var errNoDeadline = errors.New("edge: pipe conns have no deadlines")

// Pipe returns the two ends of a buffered in-memory connection, the link
// PipeNetwork hands out between tiers. Unlike net.Pipe, whose Write waits
// until the peer has read all of it, a Write returns once its bytes are
// buffered, and blocks only while PipeBuffer bytes wait unread — what a
// socket does. Concurrent Writes on one end never interleave. Close follows
// net.Pipe: the closed end's reads and writes fail at once with
// io.ErrClosedPipe, even with bytes still buffered for it; the peer reads
// what was buffered for it, then io.EOF, and its writes fail.
func Pipe() (net.Conn, net.Conn) {
	l := &pipeLink{}
	for i := range l.dirs {
		d := &l.dirs[i]
		d.readable = make(chan struct{}, 1)
		d.writable = make(chan struct{}, 1)
		d.turn = make(chan struct{}, 1)
	}
	a, b := &l.ends[0], &l.ends[1]
	a.rx, a.tx, a.peer = &l.dirs[0], &l.dirs[1], b
	b.rx, b.tx, b.peer = &l.dirs[1], &l.dirs[0], a
	return a, b
}

// pipeLink is one Pipe in a single allocation: its two directions and ends.
type pipeLink struct {
	dirs [2]pipeDir
	ends [2]pipeConn
}

// pipeDir is one direction's buffer. Its reader and writer never wait under
// mu: they park on a wake token after unlocking, and look again when woken.
type pipeDir struct {
	mu  sync.Mutex
	buf []byte // unread bytes are buf[off:]
	off int

	readable chan struct{} // wake token: bytes were buffered, or an end closed
	writable chan struct{} // wake token: bytes were read, or an end closed
	turn     chan struct{} // held by the one Write in progress
}

// put buffers as much of p as fits under PipeBuffer and returns how much.
// The caller holds d.mu.
func (d *pipeDir) put(p []byte) int {
	k := min(len(p), PipeBuffer-(len(d.buf)-d.off))
	if len(d.buf)+k > cap(d.buf) && d.off > 0 {
		d.buf, d.off = d.buf[:copy(d.buf, d.buf[d.off:])], 0
	}
	if len(d.buf)+k > cap(d.buf) {
		grown := make([]byte, len(d.buf), min(max(2*cap(d.buf), len(d.buf)+k), PipeBuffer))
		copy(grown, d.buf)
		d.buf = grown
	}
	d.buf = append(d.buf, p[:k]...)
	return k
}

// get moves buffered bytes into p and returns how many, and whether more are
// left. The caller holds d.mu.
func (d *pipeDir) get(p []byte) (n int, more bool) {
	n = copy(p, d.buf[d.off:])
	d.off += n
	if d.off == len(d.buf) {
		d.buf, d.off = d.buf[:0], 0
	}
	return n, len(d.buf) > 0
}

// wake leaves a token on ch unless one is already there.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// pipeConn is one end of a Pipe.
type pipeConn struct {
	rx, tx *pipeDir // what the peer writes, what this end writes
	peer   *pipeConn
	closed atomic.Bool
}

// Read implements net.Conn.
func (c *pipeConn) Read(p []byte) (int, error) {
	d := c.rx
	for {
		if c.closed.Load() {
			wake(d.readable) // for a concurrent reader
			return 0, io.ErrClosedPipe
		}
		if len(p) == 0 {
			return 0, nil
		}
		// Loaded before the buffer: the peer's last bytes precede its close.
		eof := c.peer.closed.Load()
		d.mu.Lock()
		n, more := d.get(p)
		d.mu.Unlock()
		if n > 0 {
			wake(d.writable)
			if more {
				wake(d.readable)
			}
			return n, nil
		}
		if eof {
			wake(d.readable)
			return 0, io.EOF
		}
		<-d.readable
	}
}

// Write implements net.Conn.
func (c *pipeConn) Write(p []byte) (int, error) {
	d := c.tx
	d.turn <- struct{}{} // a Write ahead returns once its bytes are in, or an end closes
	defer func() { <-d.turn }()
	n := 0
	for {
		if c.closed.Load() || c.peer.closed.Load() {
			return n, io.ErrClosedPipe
		}
		d.mu.Lock()
		k := d.put(p[n:])
		d.mu.Unlock()
		if k > 0 {
			wake(d.readable)
		}
		if n += k; n == len(p) {
			return n, nil
		}
		<-d.writable
	}
}

// Close implements net.Conn. It never fails.
func (c *pipeConn) Close() error {
	if !c.closed.Swap(true) {
		for _, d := range []*pipeDir{c.rx, c.tx} {
			wake(d.readable)
			wake(d.writable)
		}
	}
	return nil
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (c *pipeConn) LocalAddr() net.Addr  { return pipeAddr{} }
func (c *pipeConn) RemoteAddr() net.Addr { return pipeAddr{} }

func (c *pipeConn) SetDeadline(time.Time) error      { return errNoDeadline }
func (c *pipeConn) SetReadDeadline(time.Time) error  { return errNoDeadline }
func (c *pipeConn) SetWriteDeadline(time.Time) error { return errNoDeadline }
