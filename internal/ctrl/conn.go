// Package ctrl is the control protocol between Bladerunner tier processes:
// a small binary RPC carried over any io.ReadWriteCloser (in production a
// TCP connection from edge.TCPNetwork). It exists so the multi-process
// deployment (cmd/brnode) can cut the in-process cluster at its interface
// seams — brass.PubSub, brass.Backend, device.Backend — and replace a
// function call with a socket without the tiers noticing.
//
// Every message is one internal/frame frame; the frame kind says what the
// message is, and each method (methods.go) has one fixed field layout for
// its params and one for its result (DESIGN.md §12):
//
//	request:  id = the caller's call id; payload = method number, params
//	response: id echoes the request;     payload = result
//	error:    id echoes the request;     payload = code, message
//	notify:   id = 0, no reply;          payload = method number, params
//
// Both ends may call and serve on the same Conn; ids are correlated per
// direction (each side numbers its own requests). Incoming requests and
// notifications are dispatched in arrival order on a single dispatcher
// goroutine, never on the read loop — a handler that issues a call back
// over the same Conn must not deadlock against the loop that would
// deliver its response. Event delivery (pylon.deliver) therefore stays
// ordered per connection, matching Pylon's per-topic ordering contract.
//
// What is shared with BURST is everything below the message: the frame
// header and its reader, the MaxPayload bound, the pooled encode buffers
// and the varint/string/map primitives all live in internal/frame. What is
// not shared is queue policy. A BURST stream is device traffic with flow
// control, and under overload it sheds; control traffic is strict
// request/response with an unbounded dispatch queue and never sheds.
package ctrl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"bladerunner/internal/frame"
	"bladerunner/internal/overload"
)

// ErrConnClosed is wrapped by calls that fail because the connection is
// (or just became) closed.
var ErrConnClosed = errors.New("ctrl: connection closed")

// Frame kinds.
const (
	kindRequest byte = iota + 1
	kindResponse
	kindError
	kindNotify
)

// handler serves one method: it reads the params from r (which aliases the
// received payload, valid only until the handler returns), checks r.Done
// before acting on them, and appends the result to out. A returned error travels as an error frame (sentinel
// identity surviving via errors.go); params that do not parse close the
// connection.
type handler func(r *frame.Reader, out *bytes.Buffer) error

// msg is one received frame. A request's or notification's payload sits in
// buf, a pooled buffer that goes back when the handler returns; a reply's
// is a fresh allocation, because results alias it and outlive the call.
type msg struct {
	kind    byte
	id      uint64
	payload []byte
	buf     *bytes.Buffer
}

// slot is one in-flight call. Slots, and their channels, are reused: the
// read loop (or closeWith) removes the slot from pending and sends exactly
// one msg, the caller receives it and puts the slot on the free list.
type slot struct {
	done chan msg     // cap 1: the one reply, kind 0 when the conn closed
	r    frame.Reader // over the reply; here so that handing it to get does not allocate
}

// Conn is one control connection. Safe for concurrent use.
type Conn struct {
	name string
	rwc  io.ReadWriteCloser

	wmu sync.Mutex // one transport Write at a time

	mu       sync.Mutex
	handlers [maxMethod + 1]handler
	pending  map[uint64]*slot
	free     []*slot
	nextID   uint64
	closed   bool
	err      error
	onClose  func(error)

	// Incoming requests/notifications queue here and drain in order on the
	// dispatcher goroutine. The queue is unbounded (capacity 0) and every
	// message is Control, so nothing is ever shed and the read loop never
	// blocks behind a slow handler. qdone closes when the connection does.
	queue *overload.Queue[msg]
	qdone chan struct{}
	rd    frame.Reader // the dispatcher's, over the message it is serving
	memo  eventMemo    // the dispatcher's

	wg sync.WaitGroup
}

// NewConn wraps rwc in a control connection. name labels errors. onClose,
// when non-nil, fires once when the connection dies (nil error for a local
// Close). The read and dispatch loops do not run until Start — register
// every handler first, so a fast peer's first request cannot race
// registration.
func NewConn(name string, rwc io.ReadWriteCloser, onClose func(error)) *Conn {
	return &Conn{
		name:    name,
		rwc:     rwc,
		pending: make(map[uint64]*slot),
		onClose: onClose,
		queue:   overload.NewQueue[msg](0),
		qdone:   make(chan struct{}),
	}
}

// Start launches the read and dispatch loops. Call exactly once, after
// handler registration.
func (c *Conn) Start() *Conn {
	c.wg.Add(2)
	go c.readLoop()
	go c.dispatchLoop()
	return c
}

// handle registers fn for m. Registration after traffic has started is
// racy by design choice: register every handler before the peer can send
// (i.e. immediately after NewConn on the accepting side).
func (c *Conn) handle(m method, fn handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handlers[m] = fn
}

// begin starts a frame of the given kind for m in a pooled buffer.
//
//brlint:hotpath per-message header encode into the pooled frame buffer.
func begin(kind byte, id uint64, m method) *bytes.Buffer {
	b := frame.GetBuf()
	frame.Begin(b, kind, id)
	b.WriteByte(byte(m))
	return b
}

// call sends a request — put, when non-nil, appends the params — and
// blocks for the matching response, whose result get, when non-nil, reads
// (byte strings it keeps alias the response payload, which is the caller's
// to own). Wire errors come back with sentinel identity restored where the
// code maps to one; a response that does not parse closes the connection.
func (c *Conn) call(m method, put func(*bytes.Buffer), get func(*frame.Reader)) error {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return c.closedErr(m, err)
	}
	var s *slot
	if n := len(c.free); n > 0 {
		s, c.free = c.free[n-1], c.free[:n-1]
	} else {
		s = &slot{done: make(chan msg, 1)}
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = s
	c.mu.Unlock()

	buf := begin(kindRequest, id, m)
	if put != nil {
		put(buf)
	}
	err := c.write(buf)
	frame.PutBuf(buf)

	if err != nil {
		c.mu.Lock()
		_, unanswered := c.pending[id]
		if unanswered {
			delete(c.pending, id)
			c.free = append(c.free, s)
		}
		c.mu.Unlock()
		if unanswered {
			return fmt.Errorf("ctrl %s: send %s: %w", c.name, m, err)
		}
		// closeWith got to the slot first and answered it: collect that.
	}
	reply := <-s.done
	defer func() {
		s.r = frame.Reader{} // a parked slot must not pin the reply
		c.mu.Lock()
		c.free = append(c.free, s)
		c.mu.Unlock()
	}()

	r := &s.r
	*r = frame.Reader{B: reply.payload}
	switch reply.kind {
	case 0:
		return c.closedErr(m, c.Err())
	case kindError:
		code, text := r.Byte(), r.Str()
		if err := r.Done(); err != nil {
			return c.protocolErr(fmt.Errorf("malformed %s error: %w", m, err))
		}
		return unwire(code, text, c.name, m)
	}
	if get != nil {
		get(r)
	}
	if err := r.Done(); err != nil {
		return c.protocolErr(fmt.Errorf("malformed %s response: %w", m, err))
	}
	return nil
}

// notify sends a fire-and-forget notification (id 0, no response).
func (c *Conn) notify(m method, put func(*bytes.Buffer)) error {
	buf := begin(kindNotify, 0, m)
	defer frame.PutBuf(buf)
	put(buf)
	if err := c.write(buf); err != nil {
		return fmt.Errorf("ctrl %s: notify %s: %w", c.name, m, err)
	}
	return nil
}

// Close tears the connection down and fails every in-flight call.
func (c *Conn) Close() error {
	c.closeWith(nil)
	c.wg.Wait()
	return nil
}

// Err returns the error that closed the connection (nil before close or
// after a local Close).
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *Conn) closedErr(m method, cause error) error {
	if cause != nil {
		return fmt.Errorf("ctrl %s: call %s: %w (%w)", c.name, m, ErrConnClosed, cause)
	}
	return fmt.Errorf("ctrl %s: call %s: %w", c.name, m, ErrConnClosed)
}

// protocolErr closes the connection because the peer sent something that
// is not the protocol; the returned error is what Err reports.
func (c *Conn) protocolErr(err error) error {
	err = fmt.Errorf("ctrl %s: %w", c.name, err)
	c.closeWith(err)
	return err
}

// write completes the frame begun in buf and puts it on the transport: one
// message, one Write.
//
//brlint:hotpath per-message wire path: length patch, one transport write.
func (c *Conn) write(buf *bytes.Buffer) error {
	wire, err := frame.End(buf)
	if err != nil {
		return err
	}
	c.wmu.Lock()
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		c.wmu.Unlock()
		return ErrConnClosed
	}
	_, err = c.rwc.Write(wire)
	c.wmu.Unlock()
	if err != nil {
		c.closeWith(err)
	}
	return err
}

// closeWith performs the one-time teardown: marks closed, fails pending
// calls, wakes the dispatcher, closes the transport, fires onClose.
func (c *Conn) closeWith(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	pend := c.pending
	c.pending = make(map[uint64]*slot)
	onClose := c.onClose
	c.mu.Unlock()

	for _, s := range pend {
		s.done <- msg{}
	}
	close(c.qdone)
	_ = c.rwc.Close()
	if onClose != nil {
		onClose(err)
	}
}

// readLoop reads frames: responses and errors resolve pending calls
// directly; requests and notifications enqueue for the dispatcher. A frame
// that is not the protocol — oversized, unknown kind, a request or notify
// without a method number, a notify for a number nobody defines — closes
// the connection.
func (c *Conn) readLoop() {
	defer c.wg.Done()
	br := bufio.NewReader(c.rwc)
	for {
		kind, id, n, err := frame.ReadHeader(br, kindNotify)
		in := msg{kind: kind, id: id}
		if err == nil {
			if kind == kindRequest || kind == kindNotify {
				in.buf = frame.GetBuf()
				in.buf.Grow(n)
				in.payload = in.buf.AvailableBuffer()[:n]
			} else {
				in.payload = make([]byte, n)
			}
			err = frame.ReadPayload(br, in.payload)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.EOF // clean peer close keeps its identity
			}
			c.closeWith(err)
			return
		}
		if kind == kindResponse || kind == kindError {
			c.mu.Lock()
			s := c.pending[id]
			delete(c.pending, id)
			c.mu.Unlock()
			if s != nil {
				s.done <- in
			}
			continue
		}
		if n == 0 {
			_ = c.protocolErr(errors.New("message without a method number"))
			return
		}
		if m := method(in.payload[0]); kind == kindNotify && !m.known() {
			_ = c.protocolErr(fmt.Errorf("notify for unknown method %s", m))
			return
		}
		c.queue.Push(in, overload.Control)
	}
}

// dispatchLoop drains the incoming queue in order, invoking handlers and
// writing responses for requests. It exits when the connection closes and
// the queue has drained.
func (c *Conn) dispatchLoop() {
	defer c.wg.Done()
	for {
		for in, _, ok := c.queue.Pop(); ok; in, _, ok = c.queue.Pop() {
			c.serve(in)
			frame.PutBuf(in.buf)
		}
		select {
		case <-c.queue.Ready():
		case <-c.qdone:
			if c.queue.Len() == 0 {
				return
			}
		}
	}
}

// serve runs one request or notification through its handler. The response
// is begun before the handler runs so the handler appends its result
// straight into the buffer that goes on the wire.
func (c *Conn) serve(in msg) {
	r := &c.rd
	*r = frame.Reader{B: in.payload}
	m := method(r.Byte())
	var fn handler
	if m.known() {
		c.mu.Lock()
		fn = c.handlers[m]
		c.mu.Unlock()
	}
	out := frame.GetBuf()
	defer frame.PutBuf(out)
	frame.Begin(out, kindResponse, in.id)
	err := errUnknownMethod
	if fn != nil {
		err = fn(r, out)
		if derr := r.Done(); derr != nil {
			_ = c.protocolErr(fmt.Errorf("malformed %s params: %w", m, derr))
			return
		}
	}
	if in.kind == kindNotify { // no reply even on error
		return
	}
	if err != nil {
		out.Reset()
		frame.Begin(out, kindError, in.id)
		out.WriteByte(codeFor(err))
		frame.PutString(out, err.Error())
	}
	_ = c.write(out) // a dead conn fails every pending call anyway
}
