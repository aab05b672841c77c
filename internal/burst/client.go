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

// Client is the device-side endpoint of BURST: it opens request-streams
// over one session and dispatches inbound batches to them.
//
// Rewrite deltas are applied transparently: the client updates each
// stream's stored subscription request so that a later resubscribe (after a
// failure) carries the BRASS-written state — the application never sees the
// rewrite (paper §3.5: "rewrites offer a general solution so that the
// client need not be aware of the states").
type Client struct {
	sess *Session

	mu      sync.Mutex
	nextSID StreamID
	streams map[StreamID]*ClientStream
	closed  bool
	onClose func(error)

	// Dropped counts batches whose payload deltas were discarded because a
	// stream's event buffer was full. Payload delivery is best effort end
	// to end; control deltas (flow_status, rewrite_request, termination)
	// are never dropped — a full buffer evicts the oldest batch and
	// salvages its control deltas instead (see ClientStream.pushEvents).
	Dropped metrics.Counter

	// DecodeErrors counts batch frames whose payload did not decode. The
	// session survives (one bad stream never kills the multiplexed
	// session), and the addressed stream, if live, is told with a
	// FlowDegraded "undecodable batch" — a lost batch is a gap the endpoint
	// must hear about (axiom 1).
	DecodeErrors metrics.Counter

	// CtlSalvaged counts control deltas rescued from evicted batches and
	// re-queued at the front of the incoming batch.
	CtlSalvaged metrics.Counter

	// RelayRewrites makes rewrite deltas visible on stream Events in
	// addition to being applied to the stored request. Proxies set this:
	// they must forward rewrites downstream so the device's copy of the
	// reconnect state is updated too. Device clients leave it false.
	RelayRewrites bool
}

// eventBuffer is the per-stream channel capacity. A full buffer causes
// payload drops (counted), mirroring best-effort delivery under client
// stall; control deltas survive eviction.
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

// ClientStream is one request-stream from the client's perspective.
type ClientStream struct {
	client *Client
	sid    StreamID

	mu         sync.Mutex
	sub        Subscribe // current (possibly rewritten) request
	terminated bool
	lastSeq    uint64

	// Events delivers batches of deltas, each transmitted atomically and
	// leased to the receiver (see Received); closed when the stream terminates.
	Events chan *Received
}

// SID returns the stream id.
func (st *ClientStream) SID() StreamID { return st.sid }

// Request returns a copy of the stream's current subscription request,
// reflecting any rewrites. Devices use this to resubscribe after failures.
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
	st.mu.Unlock()
	err := st.client.sess.SendMsg(FrameCancel, st.sid, Cancel{Reason: reason})
	st.client.removeStream(st.sid)
	close(st.Events)
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
	st := &ClientStream{
		client: c,
		sid:    sid,
		sub:    Subscribe{Header: sub.Header.Clone(), Body: sub.Body},
		Events: make(chan *Received, eventBuffer),
	}
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
// request invisibly, terminations close the stream, and the remainder is
// forwarded to the application. It owns rc and filters it in place.
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
			st.sub.Patch(d)
			if !st.client.RelayRewrites {
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
	if terminate {
		st.terminated = true
	}
	// Send while holding the lock: Cancel/sessionLost close Events only
	// after setting terminated under the same lock, so this send can
	// never race with the close. Sends and evictions are non-blocking.
	if n > 0 {
		st.pushEvents(rc)
	} else {
		rc.Release()
	}
	st.mu.Unlock()

	if terminate {
		st.client.removeStream(st.sid)
		close(st.Events)
	}
}

// pushEvents delivers one batch to the Events channel without ever losing
// a control delta. If the buffer is full it evicts the OLDEST buffered
// batch, sheds that batch's payload deltas (counted in Dropped), salvages
// its control deltas onto the front of the outgoing batch (order
// preserved), and retries. A salvaged rewrite jumps behind every batch
// still buffered, so it re-asserts its keys at their CURRENT stored values
// (st.sub has applied everything buffered): replayed last it must not put a
// newer patch's key back, because no later rewrite re-asserts it. This is
// safe only because the session read goroutine is the sole sender on
// Events — apply and sessionLost both run there, holding st.mu — so a
// non-blocking receive here cannot steal from a concurrent producer, and
// after one eviction the retry always finds room. An evicted lease is released
// only if nothing was salvaged: salvaged deltas still alias its maps and bytes.
func (st *ClientStream) pushEvents(rc *Received) {
	for {
		select {
		case st.Events <- rc:
			return
		default:
		}
		select {
		case old := <-st.Events:
			shed := false
			var salvage []Delta
			for _, d := range old.Deltas {
				if d.Type == DeltaPayload {
					shed = true
					continue
				}
				if d.Type == DeltaRewriteRequest {
					for k := range d.Header { // the batch was ours alone
						d.Header[k] = st.sub.Header[k]
					}
					if d.Body != nil {
						d.Body = st.sub.Body
					}
				}
				salvage = append(salvage, d)
			}
			if shed {
				st.client.Dropped.Inc()
			}
			if len(salvage) > 0 {
				st.client.CtlSalvaged.Add(int64(len(salvage)))
				rc.Deltas = append(salvage, rc.Deltas...)
			} else {
				old.Release()
			}
		default:
			// The consumer drained a slot between our two selects; the
			// retry will land.
		}
	}
}

// SessionClosedDetail is the FlowDetail of the degraded flow status a client
// stream synthesises when its transport dies. A relay recognises it as "my
// upstream is gone: repair, do not forward" (edge.Proxy).
const SessionClosedDetail = "session closed"

// sessionLost delivers a synthetic degraded flow status and closes the
// stream channel: the transport under every stream on the session is gone.
// The notice is a control delta, so it uses the same never-lost push path.
func (st *ClientStream) sessionLost() {
	st.mu.Lock()
	if st.terminated {
		st.mu.Unlock()
		return
	}
	st.terminated = true
	rc := lease(nil)
	rc.Deltas = append(rc.slots[:0], FlowStatusDelta(FlowDegraded, SessionClosedDetail))
	st.pushEvents(rc)
	st.mu.Unlock()
	close(st.Events)
}
