package burst

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"bladerunner/internal/metrics"
)

// ServerHandler receives stream lifecycle events on the upstream (BRASS or
// proxy) side of a session. Callbacks run on the session's read goroutine.
type ServerHandler interface {
	// OnSubscribe is invoked when a new stream is requested. The stream
	// is already registered; the handler may send batches immediately. sub
	// is BORROWED from the stream: read-only, valid until OnSubscribe returns.
	OnSubscribe(st *ServerStream, sub Subscribe)
	// OnCancel is invoked when the peer cancels a stream. The stream is
	// already unregistered.
	OnCancel(st *ServerStream, c Cancel)
	// OnAck is invoked when the peer acknowledges deltas.
	OnAck(st *ServerStream, a Ack)
	// OnSessionClose is invoked once when the session dies; all streams
	// passed in were open at that moment.
	OnSessionClose(streams []*ServerStream, err error)
}

// ServerSession is the upstream endpoint of a BURST session: it tracks the
// streams the peer has opened and lets the application push delta batches
// down each of them.
type ServerSession struct {
	sess    *Session
	handler ServerHandler

	mu      sync.Mutex
	streams map[StreamID]*ServerStream
	closed  bool

	// DecodeErrors counts subscribe/cancel/ack frames whose payload did not
	// decode. Each is dropped — one bad stream never kills the multiplexed
	// session — but never silently.
	DecodeErrors metrics.Counter
}

// ServerStream is one request-stream from the server's perspective.
type ServerStream struct {
	srv *ServerSession
	sid StreamID

	mu         sync.Mutex
	sub        Subscribe
	terminated bool

	// State is free space for the application (e.g. the BRASS keeps its
	// per-stream filter state here). Synchronize externally if accessed
	// from multiple goroutines.
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
	go s.sess.readLoop()
	return s
}

// Name returns the underlying session name.
func (s *ServerSession) Name() string { return s.sess.Name() }

// Done is closed when the underlying session has shut down.
func (s *ServerSession) Done() <-chan struct{} { return s.sess.Done() }

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

// Stream returns the stream with the given id, or nil.
func (s *ServerSession) Stream(sid StreamID) *ServerStream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[sid]
}

// SID returns the stream id.
func (st *ServerStream) SID() StreamID { return st.sid }

// Request returns a copy of the subscription request that opened the
// stream, including any rewrites this server has issued since.
func (st *ServerStream) Request() Subscribe {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := Subscribe{Header: st.sub.Header.Clone()}
	if st.sub.Body != nil {
		out.Body = append([]byte(nil), st.sub.Body...)
	}
	return out
}

// HeaderField returns one header key of the stored request without copying
// the rest.
func (st *ServerStream) HeaderField(key string) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sub.Header[key]
}

// applyRewritesLocked folds the rewrite deltas among deltas into the
// server's own copy of the stored request, keeping both ends of the stream
// (and the proxies in between, which snoop batches) in agreement about the
// reconnect state. It is the only writer of st.sub; callers hold st.mu.
func (st *ServerStream) applyRewritesLocked(deltas ...Delta) {
	for i := range deltas {
		if deltas[i].Type == DeltaRewriteRequest {
			st.sub.Patch(&deltas[i])
		}
	}
}

// SendBatch transmits deltas as one atomic batch, applying any rewrite it
// carries to the server's stored request first.
func (st *ServerStream) SendBatch(deltas ...Delta) error {
	st.mu.Lock()
	if st.terminated {
		st.mu.Unlock()
		return fmt.Errorf("stream %d: %w", st.sid, ErrStreamClosed)
	}
	st.applyRewritesLocked(deltas...)
	st.mu.Unlock()
	return st.srv.sess.SendMsg(FrameBatch, st.sid, Batch{Deltas: deltas})
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
	err := st.srv.sess.SendMsg(FrameBatch, st.sid, Batch{Deltas: []Delta{TerminationDelta(reason)}})
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
		sub, err := DecodeSubscribe(f.Payload)
		if err != nil {
			s.DecodeErrors.Inc()
			return
		}
		// The stream owns the decoded header map (rewrites merge into it in
		// place), the handler borrows it. The body, shared and never
		// written, must outlive the borrowed frame.
		sub.Body = bytes.Clone(sub.Body)
		st := &ServerStream{srv: s, sid: f.SID, sub: sub}
		s.mu.Lock()
		if _, dup := s.streams[f.SID]; dup {
			s.mu.Unlock()
			return // duplicate sid: protocol violation, drop
		}
		s.streams[f.SID] = st
		s.mu.Unlock()
		if poison != "" { // lend a copy that reads empty once the loan has ended
			sub.Header = sub.Header.Clone()
			defer clear(sub.Header)
		}
		s.handler.OnSubscribe(st, sub)
	case FrameCancel:
		c, err := DecodeCancel(f.Payload)
		if err != nil {
			s.DecodeErrors.Inc()
			return
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
	case FrameAck:
		a, err := DecodeAck(f.Payload)
		if err != nil {
			s.DecodeErrors.Inc()
			return
		}
		s.mu.Lock()
		st := s.streams[f.SID]
		s.mu.Unlock()
		if st != nil {
			s.handler.OnAck(st, a)
		}
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
	Subscribe    func(st *ServerStream, sub Subscribe)
	Cancel       func(st *ServerStream, c Cancel)
	Ack          func(st *ServerStream, a Ack)
	SessionClose func(streams []*ServerStream, err error)
}

// OnSubscribe implements ServerHandler.
func (h ServerHandlerFuncs) OnSubscribe(st *ServerStream, sub Subscribe) {
	if h.Subscribe != nil {
		h.Subscribe(st, sub)
	}
}

// OnCancel implements ServerHandler.
func (h ServerHandlerFuncs) OnCancel(st *ServerStream, c Cancel) {
	if h.Cancel != nil {
		h.Cancel(st, c)
	}
}

// OnAck implements ServerHandler.
func (h ServerHandlerFuncs) OnAck(st *ServerStream, a Ack) {
	if h.Ack != nil {
		h.Ack(st, a)
	}
}

// OnSessionClose implements ServerHandler.
func (h ServerHandlerFuncs) OnSessionClose(streams []*ServerStream, err error) {
	if h.SessionClose != nil {
		h.SessionClose(streams, err)
	}
}
