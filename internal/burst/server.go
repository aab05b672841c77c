package burst

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"bladerunner/internal/frame"
	"bladerunner/internal/metrics"
)

// ServerHandler receives stream lifecycle events on the upstream (BRASS or
// proxy) side of a session. Callbacks run on the session's read goroutine.
type ServerHandler interface {
	// NewStream returns the zero stream a subscribe is decoded into. A
	// handler whose per-stream object holds its ServerStream by value hands
	// out that field, so a stream is one object per hop; State is its way
	// back to the owner. The stream may be dropped unseen (a request that
	// does not decode, a duplicate id) or refused by OnSubscribe.
	NewStream() *ServerStream
	// OnSubscribe is invoked when a new stream is requested, with the stream
	// NewStream returned. It is already registered and holds the request
	// (HeaderField); the handler may send batches immediately.
	OnSubscribe(st *ServerStream)
	// OnCancel is invoked when the peer cancels a stream. The stream is
	// already unregistered. c.Reason is BORROWED from the frame: valid until
	// OnCancel returns.
	OnCancel(st *ServerStream, c Cancel)
	// OnSessionClose is invoked once when the session dies; all streams
	// passed in were open at that moment.
	OnSessionClose(streams []*ServerStream, err error)
}

// ServerSession is the upstream endpoint of a BURST session: it tracks the
// streams the peer has opened and lets the application push delta batches
// down each of them. Everything it sends goes out through its one writer
// goroutine, which puts the frames queued since its last write on the
// transport in one write, and forwards the relay legs that feed its streams
// (ClientStream.Forward).
type ServerSession struct {
	sess    *Session
	handler ServerHandler

	mu      sync.Mutex
	streams map[StreamID]*ServerStream
	closed  bool

	// DecodeErrors counts subscribe/cancel frames whose payload did not
	// decode and frames of a type no server serves. Each is dropped — one
	// bad stream never kills the multiplexed session — but never silently.
	DecodeErrors metrics.Counter

	// Writes counts the writer's transport writes and Frames the frames they
	// carried: Frames/Writes is how many frames a write shares.
	Writes, Frames metrics.Counter
}

// ServerStream is one request-stream from the server's perspective.
type ServerStream struct {
	srv *ServerSession
	sid StreamID

	mu         sync.Mutex
	req        request // its pairs sit in inline while they fit
	inline     [storedRoom]pair
	hdr        [headerRoom]byte // the header's bytes while they fit, then req's first room
	terminated bool

	// State is free space for the application: the way back from the stream
	// to the object that holds it (BRASS's Stream, a proxy's relay).
	// Synchronize externally if accessed from multiple goroutines.
	State any
}

// NewServerSession wraps rwc as the upstream end of a BURST session.
func NewServerSession(name string, rwc io.ReadWriteCloser, handler ServerHandler) *ServerSession {
	if handler == nil {
		panic("burst: NewServerSession with nil handler")
	}
	s := &ServerSession{
		handler: handler,
		streams: make(map[StreamID]*ServerStream),
	}
	s.sess = newSession(name, rwc, serverDispatch{s})
	s.sess.out = &writer{srv: s, wake: make(chan struct{}, 1), room: make(chan struct{})}
	go s.sess.readLoop()
	go s.sess.out.run()
	return s
}

// Close tears the session down.
func (s *ServerSession) Close() error { return s.sess.Close() }

// Streams returns the currently open streams.
func (s *ServerSession) Streams() []*ServerStream {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*ServerStream, 0, len(s.streams))
	for _, st := range s.streams {
		out = append(out, st)
	}
	return out
}

// Request returns a copy of the subscription request that opened the
// stream, including any rewrites this server has issued since.
//
//brlint:allow(test-only-export) the per-stream table of ROADMAP item 4(c) (cursor and rewrites) is its caller
func (st *ServerStream) Request() Subscribe {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.req.subscribe()
}

// HeaderField returns one header key of the stored request without copying
// the rest.
func (st *ServerStream) HeaderField(key string) string {
	v, _ := st.LookupHeader(key)
	return v
}

// LookupHeader is HeaderField that also reports whether the key is present.
func (st *ServerStream) LookupHeader(key string) (string, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.req.lookup(key)
}

// applyRewritesLocked folds the rewrite deltas among deltas into the
// server's own copy of the stored request, keeping both ends of the stream
// (and the proxies in between, which snoop batches) in agreement about the
// reconnect state. It is the only writer of st.req; callers hold st.mu.
func (st *ServerStream) applyRewritesLocked(deltas ...Delta) {
	for i := range deltas {
		if deltas[i].Type == DeltaRewriteRequest {
			st.req.patch(&deltas[i])
		}
	}
}

// SendBatch queues deltas for the session's writer as one atomic batch,
// applying any rewrite it carries to the server's stored request first. It
// returns once the batch is encoded, and keeps nothing of deltas: a caller
// lends them, patch strings too, for the call. It waits only while the
// session's pending frames are at their bound.
func (st *ServerStream) SendBatch(deltas ...Delta) error {
	st.mu.Lock()
	if st.terminated {
		st.mu.Unlock()
		return fmt.Errorf("stream %d: %w", st.sid, ErrStreamClosed)
	}
	st.applyRewritesLocked(deltas...)
	st.mu.Unlock()
	return st.srv.sess.out.send(FrameBatch, st.sid, Batch{Deltas: deltas})
}

// Rewrite sends a rewrite_request delta: the keys of h are set on the stored
// request at every hop and every other key is kept; a non-nil body replaces
// the stored body.
func (st *ServerStream) Rewrite(h Header, body []byte) error {
	return st.SendBatch(RewriteDelta(h, body))
}

// RewriteHeaderField patches a single header key — the common form of
// rewrite (sticky routing, resume tokens).
func (st *ServerStream) RewriteHeaderField(key, value string) error {
	return st.Rewrite(Header{key: value}, nil)
}

// Terminate ends the stream from the server side with a termination delta.
func (st *ServerStream) Terminate(reason string) error {
	st.mu.Lock()
	if st.terminated {
		st.mu.Unlock()
		return nil
	}
	st.terminated = true
	st.mu.Unlock()
	err := st.srv.sess.out.send(FrameBatch, st.sid, Batch{Deltas: []Delta{TerminationDelta(reason)}})
	st.srv.removeStream(st.sid)
	return err
}

func (s *ServerSession) removeStream(sid StreamID) {
	s.mu.Lock()
	delete(s.streams, sid)
	s.mu.Unlock()
}

type serverDispatch struct{ s *ServerSession }

func (d serverDispatch) HandleFrame(f Frame) {
	s := d.s
	switch f.Type {
	case FrameSubscribe:
		// The stream the handler lends decodes its request into itself, and
		// the header's bytes while they fit; the rest of hdr is the room
		// rewrites copy into. The body, never written, must outlive the
		// borrowed frame.
		st := s.handler.NewStream()
		st.srv, st.sid = s, f.SID
		r := frame.Reader{B: f.Payload}
		pairs, used := readPairs(&r, st.inline[:0], st.hdr[:])
		st.req = request{pairs: pairs, body: r.Bytes(), room: st.hdr[used:used]}
		if err := r.Done(); err != nil {
			s.DecodeErrors.Inc()
			return
		}
		st.req.body = bytes.Clone(st.req.body)
		s.mu.Lock()
		if _, dup := s.streams[f.SID]; dup {
			s.mu.Unlock()
			return // duplicate sid: protocol violation, drop
		}
		s.streams[f.SID] = st
		s.mu.Unlock()
		s.handler.OnSubscribe(st)
	case FrameCancel:
		c, err := DecodeCancel(f.Payload) // the reason aliases the borrowed frame
		if err != nil {
			s.DecodeErrors.Inc()
			return
		}
		if poison != "" { // lend a copy that reads 0xDB once the loan has ended
			p := []byte(c.Reason)
			c.Reason = borrow(p)
			defer poisonBytes(p)
		}
		s.mu.Lock()
		st := s.streams[f.SID]
		delete(s.streams, f.SID)
		s.mu.Unlock()
		if st != nil {
			st.mu.Lock()
			st.terminated = true
			st.mu.Unlock()
			s.handler.OnCancel(st, c)
		}
	default:
		// A batch sent upstream or the reserved type 3: nothing a server
		// serves, so it is dropped like an undecodable payload.
		s.DecodeErrors.Inc()
	}
}

func (d serverDispatch) HandleClose(err error) {
	s := d.s
	s.mu.Lock()
	s.closed = true
	streams := make([]*ServerStream, 0, len(s.streams))
	for _, st := range s.streams {
		st.mu.Lock()
		st.terminated = true
		st.mu.Unlock()
		streams = append(streams, st)
	}
	s.streams = make(map[StreamID]*ServerStream)
	s.mu.Unlock()
	s.handler.OnSessionClose(streams, err)
}

// ServerHandlerFuncs adapts plain functions to ServerHandler.
type ServerHandlerFuncs struct {
	Subscribe    func(st *ServerStream)
	Cancel       func(st *ServerStream, c Cancel)
	SessionClose func(streams []*ServerStream, err error)
}

// NewStream implements ServerHandler: each stream is an object of its own.
func (h ServerHandlerFuncs) NewStream() *ServerStream { return new(ServerStream) }

// OnSubscribe implements ServerHandler.
func (h ServerHandlerFuncs) OnSubscribe(st *ServerStream) {
	if h.Subscribe != nil {
		h.Subscribe(st)
	}
}

// OnCancel implements ServerHandler.
func (h ServerHandlerFuncs) OnCancel(st *ServerStream, c Cancel) {
	if h.Cancel != nil {
		h.Cancel(st, c)
	}
}

// OnSessionClose implements ServerHandler.
func (h ServerHandlerFuncs) OnSessionClose(streams []*ServerStream, err error) {
	if h.SessionClose != nil {
		h.SessionClose(streams, err)
	}
}
