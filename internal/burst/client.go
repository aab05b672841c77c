package burst

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"bladerunner/internal/metrics"
)

// ErrStreamClosed is returned when operating on a terminated stream.
var ErrStreamClosed = errors.New("burst: stream closed")

// Client is the device-side endpoint of BURST, and a relay's upstream leg: it
// opens request-streams over one session and queues inbound batches on them.
//
// Rewrite deltas are applied transparently: the client updates each
// stream's stored subscription request so that a later resubscribe (after a
// failure) carries the BRASS-written state — the application never sees the
// rewrite (paper §3.5: "rewrites offer a general solution so that the
// client need not be aware of the states"). A Relay client stores nothing
// and hands the rewrites on instead.
type Client struct {
	sess *Session

	mu      sync.Mutex
	nextSID StreamID
	streams map[StreamID]*ClientStream
	closed  bool
	onClose func(error)

	// Dropped counts queued batches whose payload deltas were shed because
	// a stream's queue was at its bound. Payload delivery is best effort end
	// to end; control deltas (flow_status, rewrite_request, termination)
	// are never dropped (see ClientStream.push).
	Dropped metrics.Counter

	// DecodeErrors counts batch frames whose payload did not decode. The
	// session survives (one bad stream never kills the multiplexed
	// session), and the addressed stream, if live, is told with a
	// FlowDegraded "undecodable batch" — a lost batch is a gap the endpoint
	// must hear about (axiom 1).
	DecodeErrors metrics.Counter

	// Relay makes a client a relay's upstream leg: its streams keep no
	// stored request, and rewrite deltas pass through to Next for the relay
	// to forward. The relay's downstream ServerStream merges each one as it
	// is forwarded, and that copy is the one it repairs from. Proxies set
	// this; device clients leave it false and fold rewrites into the stream's
	// stored request invisibly.
	Relay bool
}

// eventBuffer bounds the batches a stream queues for Next: at the bound the
// oldest payload is shed, mirroring best-effort delivery under client stall;
// control deltas are never shed.
const eventBuffer = 256

// NewClient starts a BURST client session over rwc. onClose, if non-nil,
// runs when the session dies; every open stream also receives a synthetic
// FlowDegraded delta so the application learns its streams are dark.
func NewClient(name string, rwc io.ReadWriteCloser, onClose func(error)) *Client {
	c := &Client{
		streams: make(map[StreamID]*ClientStream),
		onClose: onClose,
	}
	c.sess = newSession(name, rwc, clientHandler{c})
	go c.sess.readLoop()
	return c
}

// ClientStream is one request-stream from the client's perspective. Its
// batches wait in a queue the stream owns until Next hands them out.
type ClientStream struct {
	client *Client
	sid    StreamID

	mu         sync.Mutex
	sub        Subscribe // current (possibly rewritten) request; empty on a Relay client
	terminated bool
	lastSeq    uint64

	// The queue: n batches from head in a ring that starts in inline and
	// doubles only while more are pending.
	ring    []*Received
	head, n int
	inline  [4]*Received
	ready   sync.Cond // on mu: a batch was queued, or the stream ended
}

// SID returns the stream id.
func (st *ClientStream) SID() StreamID { return st.sid }

// Next returns the oldest batch not yet handed out, waiting for one. Each
// batch was transmitted atomically and is leased to the caller (see
// Received). Once the stream has ended, Next hands out what is still queued
// and then reports false.
func (st *ClientStream) Next() (*Received, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.n == 0 && !st.terminated {
		//brlint:allow(no-lock-across-block) the canonical Cond pattern: Wait releases st.mu while parked, so the session's read loop can still queue
		st.ready.Wait()
	}
	if st.n == 0 {
		return nil, false
	}
	rc := st.ring[st.head]
	st.ring[st.head] = nil
	st.head = (st.head + 1) % len(st.ring)
	st.n--
	return rc, true
}

// Request returns a copy of the stream's current subscription request,
// reflecting any rewrites (empty on a Relay client, which keeps none).
// Devices use this to resubscribe after failures.
func (st *ClientStream) Request() Subscribe {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := Subscribe{Header: st.sub.Header.Clone()}
	if st.sub.Body != nil {
		out.Body = append([]byte(nil), st.sub.Body...)
	}
	return out
}

// HeaderField returns one header key of the current request without copying
// the rest.
func (st *ClientStream) HeaderField(key string) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sub.Header[key]
}

// LastSeq returns the highest payload sequence number received.
func (st *ClientStream) LastSeq() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastSeq
}

// Ack acknowledges deltas up to and including seq.
func (st *ClientStream) Ack(seq uint64) error {
	return st.client.sess.SendMsg(FrameAck, st.sid, Ack{Seq: seq})
}

// Cancel terminates the stream from the client side.
func (st *ClientStream) Cancel(reason string) error {
	st.mu.Lock()
	if st.terminated {
		st.mu.Unlock()
		return nil
	}
	st.terminated = true
	st.ready.Broadcast()
	st.mu.Unlock()
	err := st.client.sess.SendMsg(FrameCancel, st.sid, Cancel{Reason: reason})
	st.client.removeStream(st.sid)
	return err
}

// Subscribe opens a new request-stream with the given request — a fresh one,
// or a stored (rewritten) one reopening a stream after a failure.
func (c *Client) Subscribe(sub Subscribe) (*ClientStream, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("client %s: %w", c.sess.name, ErrSessionClosed)
	}
	c.nextSID++
	sid := c.nextSID
	st := &ClientStream{client: c, sid: sid}
	if !c.Relay {
		st.sub = Subscribe{Header: sub.Header.Clone(), Body: sub.Body}
	}
	st.ring = st.inline[:]
	st.ready.L = &st.mu
	c.streams[sid] = st
	c.mu.Unlock()

	if err := c.sess.SendMsg(FrameSubscribe, sid, sub); err != nil {
		c.removeStream(sid)
		return nil, err
	}
	return st, nil
}

// Streams returns the currently open streams.
func (c *Client) Streams() []*ClientStream {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*ClientStream, 0, len(c.streams))
	for _, st := range c.streams {
		out = append(out, st)
	}
	return out
}

// Close tears down the session; open streams receive FlowDegraded and are
// closed.
func (c *Client) Close() error { return c.sess.Close() }

func (c *Client) removeStream(sid StreamID) {
	c.mu.Lock()
	delete(c.streams, sid)
	c.mu.Unlock()
}

type clientHandler struct{ c *Client }

func (h clientHandler) HandleFrame(f Frame) {
	c := h.c
	if f.Type != FrameBatch {
		return // clients only receive batches
	}
	// The payload is borrowed, the batch outlives this call: decode a copy.
	rc := lease(f.Payload)
	var err error
	if rc.Deltas, err = decodeBatch(rc.buf.Bytes(), rc); err != nil {
		c.DecodeErrors.Inc()
		rc.Deltas = append(rc.slots[:0], FlowStatusDelta(FlowDegraded, "undecodable batch"))
	}
	c.mu.Lock()
	st := c.streams[f.SID]
	c.mu.Unlock()
	if st == nil {
		rc.Release()
		return // stream already cancelled; late batch
	}
	st.apply(rc)
}

func (h clientHandler) HandleClose(err error) {
	c := h.c
	c.mu.Lock()
	c.closed = true
	streams := make([]*ClientStream, 0, len(c.streams))
	for _, st := range c.streams {
		streams = append(streams, st)
	}
	c.streams = make(map[StreamID]*ClientStream)
	onClose := c.onClose
	c.mu.Unlock()
	for _, st := range streams {
		st.sessionLost()
	}
	if onClose != nil {
		onClose(err)
	}
}

// apply processes one atomically delivered batch: rewrites patch the stored
// request invisibly (a Relay client passes them on instead), terminations end
// the stream, and the remainder is queued for Next. It owns rc and filters it
// in place.
func (st *ClientStream) apply(rc *Received) {
	terminate := false
	st.mu.Lock()
	if st.terminated {
		st.mu.Unlock()
		rc.Release()
		return
	}
	n := 0
	for i := range rc.Deltas {
		d := &rc.Deltas[i]
		switch d.Type {
		case DeltaRewriteRequest:
			if !st.client.Relay {
				st.sub.Patch(d)
				continue
			}
		case DeltaPayload:
			if d.Seq > st.lastSeq {
				st.lastSeq = d.Seq
			}
		case DeltaTermination:
			terminate = true
		}
		if n != i {
			rc.Deltas[n] = *d
		}
		n++
	}
	rc.Deltas = rc.Deltas[:n]
	if n > 0 {
		st.push(rc)
	} else {
		rc.Release()
	}
	if terminate {
		st.terminated = true
		st.ready.Broadcast()
	}
	st.mu.Unlock()

	if terminate {
		st.client.removeStream(st.sid)
	}
}

// push queues rc for Next; the caller holds st.mu. At the bound the oldest
// queued batch that still carries payload loses it in place (counted in
// Dropped). Its control deltas keep their slot, so nothing is reordered and
// a rewrite is forwarded exactly as it arrived; a queue of nothing but
// control outgrows the bound rather than shed any. A batch left empty leaves
// the queue and is released. The shed is counted, not announced downstream.
func (st *ClientStream) push(rc *Received) {
	if st.n >= eventBuffer {
		st.shedOldest()
	}
	if st.n == len(st.ring) {
		grown := make([]*Received, 2*len(st.ring))
		for i := range st.n {
			grown[i] = st.ring[(st.head+i)%len(st.ring)]
		}
		st.ring, st.head = grown, 0
	}
	st.ring[(st.head+st.n)%len(st.ring)] = rc
	st.n++
	st.ready.Signal()
}

func (st *ClientStream) shedOldest() {
	for i := range st.n {
		rc := st.ring[(st.head+i)%len(st.ring)]
		kept := 0
		for _, d := range rc.Deltas {
			if d.Type == DeltaPayload {
				continue
			}
			rc.Deltas[kept] = d
			kept++
		}
		if kept == len(rc.Deltas) {
			continue // no payload to shed
		}
		st.client.Dropped.Inc()
		if rc.Deltas = rc.Deltas[:kept]; kept == 0 {
			for ; i > 0; i-- { // close the gap from the older side
				st.ring[(st.head+i)%len(st.ring)] = st.ring[(st.head+i-1)%len(st.ring)]
			}
			st.ring[st.head] = nil
			st.head = (st.head + 1) % len(st.ring)
			st.n--
			rc.Release()
		}
		return
	}
}

// SessionClosedDetail is the FlowDetail of the degraded flow status a client
// stream synthesises when its transport dies. A relay recognises it as "my
// upstream is gone: repair, do not forward" (edge.Proxy).
const SessionClosedDetail = "session closed"

// sessionLost queues a synthetic degraded flow status and ends the stream:
// the transport under every stream on the session is gone.
func (st *ClientStream) sessionLost() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.terminated {
		return
	}
	rc := lease(nil)
	rc.Deltas = append(rc.slots[:0], FlowStatusDelta(FlowDegraded, SessionClosedDetail))
	st.push(rc)
	st.terminated = true
	st.ready.Broadcast()
}
