package burst

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"bladerunner/internal/frame"
	"bladerunner/internal/sim"
)

// ErrSessionClosed is returned when sending on a closed session.
var ErrSessionClosed = errors.New("burst: session closed")

// FrameHandler receives inbound frames and the session-closed notification.
// HandleFrame is invoked from the session's single read goroutine, so
// implementations observe frames in wire order.
type FrameHandler interface {
	// HandleFrame BORROWS f.Payload: the next frame overwrites it, so it and
	// what was decoded from it (DESIGN.md §7e) are valid only until it returns.
	HandleFrame(f Frame)
	// HandleClose is invoked exactly once when the session dies; err is
	// nil for a locally initiated close, io.EOF for a clean peer close.
	HandleClose(err error)
}

// Session multiplexes BURST frames over one underlying byte transport.
// Sends are safe for concurrent use. Ping frames are answered with Pong
// automatically; pongs are surfaced to the optional PongListener for
// keepalive tracking.
type Session struct {
	name string
	rwc  io.ReadWriteCloser
	br   *bufio.Reader

	wmu sync.Mutex // serializes frame writes on rwc

	handler FrameHandler

	mu     sync.Mutex
	closed bool
	err    error
	onPong func()

	done chan struct{}
}

// NewSession wraps rwc and starts the read loop. name is used in errors.
// The handler must be non-nil.
func NewSession(name string, rwc io.ReadWriteCloser, handler FrameHandler) *Session {
	s := newSession(name, rwc, handler)
	go s.readLoop()
	return s
}

// newSession is NewSession without the read loop: for an owner whose handler
// reaches the session through the owner, and so must store it before the
// first frame can dispatch (a peer's frame may already be in the socket).
func newSession(name string, rwc io.ReadWriteCloser, handler FrameHandler) *Session {
	if handler == nil {
		panic("burst: NewSession with nil handler")
	}
	return &Session{
		name:    name,
		rwc:     rwc,
		br:      bufio.NewReaderSize(rwc, readBufSize),
		handler: handler,
		done:    make(chan struct{}),
	}
}

// Name returns the session's diagnostic name.
func (s *Session) Name() string { return s.name }

// Done is closed when the session has fully shut down.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err returns the error the session closed with: nil before close or for a
// locally initiated close, io.EOF for a clean peer close.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// SetPongListener registers fn to run on each received Pong.
func (s *Session) SetPongListener(fn func()) {
	s.mu.Lock()
	s.onPong = fn
	s.mu.Unlock()
}

// Send writes f to the peer. Frames from concurrent senders are serialized;
// each frame goes out immediately (streams are latency-sensitive) as a
// single write of header and payload together.
//
//brlint:hotpath per-frame wire path: header and payload into one pooled buffer.
func (s *Session) Send(f Frame) error {
	buf := frame.GetBuf()
	defer frame.PutBuf(buf)
	frame.Begin(buf, byte(f.Type), uint64(f.SID))
	buf.Write(f.Payload)
	return s.write(buf)
}

// write completes the frame begun in buf and puts it on the transport.
//
//brlint:hotpath per-frame wire path: length patch, one transport write.
func (s *Session) write(buf *bytes.Buffer) error {
	wire, err := frame.End(buf)
	if err != nil {
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	// The closed check must happen under wmu: a sender that checked before
	// acquiring wmu could otherwise write a frame onto a transport that
	// closeWith tore down while it waited, surfacing as a confusing
	// write-on-closed-conn error instead of ErrSessionClosed.
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("session %s: %w", s.name, ErrSessionClosed)
	}
	if _, err := s.rwc.Write(wire); err != nil {
		return s.sendFailed(err)
	}
	return nil
}

// sendFailed maps a write failure to the session's close state: if another
// goroutine closed the session while the frame was in flight, the failure
// is just the dead transport surfacing and the caller gets ErrSessionClosed;
// otherwise the write error is the cause of death and the session closes
// with it.
func (s *Session) sendFailed(err error) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("session %s: %w", s.name, ErrSessionClosed)
	}
	s.closeWith(err)
	return err
}

// SendMsg encodes v — a Subscribe, Cancel, Ack or Batch, or nil for an
// empty payload — as a frame of type t on stream sid. Frame header and
// payload are appended to one pooled buffer that is written to the wire
// before being reused, so the send path allocates nothing per frame. v is
// only inspected, never retained: boxing it costs the caller no allocation.
//
//brlint:hotpath per-delta payload push: binary encode into the pooled frame buffer.
func (s *Session) SendMsg(t FrameType, sid StreamID, v any) error {
	buf := frame.GetBuf()
	defer frame.PutBuf(buf)
	frame.Begin(buf, byte(t), uint64(sid))
	if !putMsg(buf, v) {
		return fmt.Errorf("burst: no payload encoding for this message type on a %v frame", t)
	}
	return s.write(buf)
}

// Ping sends a liveness probe.
func (s *Session) Ping() error { return s.Send(Frame{Type: FramePing}) }

// Close shuts the session down locally. The handler's HandleClose runs with
// a nil error.
func (s *Session) Close() error {
	s.closeWith(nil)
	return nil
}

func (s *Session) closeWith(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.err = err
	s.mu.Unlock()
	_ = s.rwc.Close()
}

// readBufSize is the session's read buffer; a payload that fits it (nearly
// all: a batch is a few hundred bytes) is handled in place, never copied out.
const readBufSize = 32 << 10

// poison, when non-empty, overwrites memory whose loan has ended — a payload
// once HandleFrame returns, a lease on Release — so whoever kept it reads 0xDB,
// not plausible stale data. A test hook, not a setting: this package's tests
// set it in TestMain, others link with -X bladerunner/internal/burst.poison=on.
var poison string

func poisonBytes(p []byte) {
	if poison != "" {
		for i := range p {
			p[i] = 0xDB
		}
	}
}

func (s *Session) readLoop() {
	defer close(s.done)
	for {
		// The payload stays in s.br's buffer while the handler runs; the held
		// bytes go after. One too large for that (but within MaxPayload, which
		// ReadHeader checked) gets its own allocation.
		kind, id, n, err := frame.ReadHeader(s.br, byte(FramePong))
		f, held := Frame{Type: FrameType(kind), SID: StreamID(id)}, 0
		switch {
		case err != nil || n == 0:
		case n > readBufSize:
			f.Payload = make([]byte, n)
			err = frame.ReadPayload(s.br, f.Payload)
		default:
			f.Payload, err = frame.PeekPayload(s.br, n)
			held = n
		}
		if err != nil {
			s.mu.Lock()
			alreadyClosed := s.closed
			if !alreadyClosed {
				s.closed = true
				// A clean EOF is the peer hanging up; keep it distinct
				// from a local close (nil) so handlers can tell whether
				// the far side went away or we did. A torn frame
				// (io.ErrUnexpectedEOF) stays an error close.
				if errors.Is(err, io.EOF) {
					s.err = io.EOF
				} else {
					s.err = err
				}
			}
			finalErr := s.err
			s.mu.Unlock()
			_ = s.rwc.Close()
			if alreadyClosed {
				finalErr = s.Err()
			}
			s.handler.HandleClose(finalErr)
			return
		}
		switch f.Type {
		case FramePing:
			// Answer liveness probes inline.
			_ = s.Send(Frame{Type: FramePong})
		case FramePong:
			s.mu.Lock()
			fn := s.onPong
			s.mu.Unlock()
			if fn != nil {
				fn()
			}
		default:
			s.handler.HandleFrame(f)
		}
		poisonBytes(f.Payload)
		_, _ = s.br.Discard(held) // cannot fail: Peek buffered these bytes
	}
}

// HandlerFuncs adapts plain functions to FrameHandler.
type HandlerFuncs struct {
	OnFrame func(Frame)
	OnClose func(error)
}

// HandleFrame calls OnFrame when set.
func (h HandlerFuncs) HandleFrame(f Frame) {
	if h.OnFrame != nil {
		h.OnFrame(f)
	}
}

// HandleClose calls OnClose when set.
func (h HandlerFuncs) HandleClose(err error) {
	if h.OnClose != nil {
		h.OnClose(err)
	}
}

// Keepalive drives heartbeats on a session: it pings every interval and
// closes the session if no pong arrives within timeout, providing the fast
// failure detection the paper's footnote 11 describes (waiting for TCP to
// notice takes too long).
//
// On transports that support read deadlines (real TCP conns) and a
// wall-clock scheduler, the keepalive also arms a rolling read deadline
// ahead of each ping, so a session whose *write* side wedges (dead peer
// with a full kernel send buffer — Ping never returns, so the pong timer
// would never be armed) is still torn down by the read side.
type Keepalive struct {
	sess     *Session
	sched    sim.Scheduler
	interval time.Duration
	timeout  time.Duration
	deadline deadlineConn // nil unless real clock + deadline-capable conn

	mu      sync.Mutex
	stopped bool
	cancel  func() // pending timer: interval tick or in-flight pong timeout
	alive   bool
}

// deadlineConn is the subset of net.Conn keepalive uses to bound reads.
type deadlineConn interface {
	SetReadDeadline(t time.Time) error
}

// StartKeepalive begins heartbeating sess. Call Stop to end it.
func StartKeepalive(sess *Session, sched sim.Scheduler, interval, timeout time.Duration) *Keepalive {
	if sched == nil {
		sched = sim.RealClock{}
	}
	k := &Keepalive{sess: sess, sched: sched, interval: interval, timeout: timeout, alive: true}
	// Read deadlines only make sense when scheduler time is wall time:
	// net.Pipe implements SetReadDeadline against the wall clock, so arming
	// it from a virtual clock would expire reads instantly.
	if _, real := sched.(sim.RealClock); real {
		if dc, ok := sess.rwc.(deadlineConn); ok {
			k.deadline = dc
		}
	}
	sess.SetPongListener(func() {
		k.mu.Lock()
		k.alive = true
		k.mu.Unlock()
	})
	k.schedule()
	return k
}

func (k *Keepalive) schedule() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.stopped {
		return
	}
	k.cancel = k.sched.After(k.interval, k.tick)
}

func (k *Keepalive) tick() {
	k.mu.Lock()
	if k.stopped {
		k.mu.Unlock()
		return
	}
	// Mark not-alive before sending the ping: the pong may arrive on
	// another goroutine before Ping even returns.
	k.alive = false
	k.mu.Unlock()
	if k.deadline != nil {
		// Bound the read side past the next full ping cycle; refreshed
		// every tick while the session is healthy.
		_ = k.deadline.SetReadDeadline(k.sched.Now().Add(k.interval + 2*k.timeout))
	}
	if err := k.sess.Ping(); err != nil {
		return // session already dead
	}
	k.mu.Lock()
	if k.stopped {
		// Stop raced the tick: don't arm the pong-timeout timer after
		// Stop already cancelled everything it could see.
		k.mu.Unlock()
		return
	}
	k.cancel = k.sched.After(k.timeout, k.pongDeadline)
	k.mu.Unlock()
}

// pongDeadline runs timeout after a ping: either the pong arrived (schedule
// the next tick) or the session is declared dead.
func (k *Keepalive) pongDeadline() {
	k.mu.Lock()
	dead := !k.alive && !k.stopped
	k.mu.Unlock()
	if dead {
		k.sess.closeWith(fmt.Errorf("session %s: heartbeat timeout", k.sess.name))
		return
	}
	k.schedule()
}

// Stop ends the keepalive without closing the session. Both the interval
// timer and an in-flight pong-timeout timer are cancelled; no keepalive
// timer fires after Stop returns.
func (k *Keepalive) Stop() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.stopped = true
	if k.cancel != nil {
		k.cancel()
		k.cancel = nil
	}
	if k.deadline != nil {
		_ = k.deadline.SetReadDeadline(time.Time{})
	}
}
