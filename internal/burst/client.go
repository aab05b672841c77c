package burst

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"bladerunner/internal/frame"
	"bladerunner/internal/metrics"
	"bladerunner/internal/overload"
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
// client need not be aware of the states"). A Relay client hands the
// rewrites on instead, and its legs store nothing.
type Client struct {
	sess *Session

	mu      sync.Mutex
	nextSID StreamID
	streams map[StreamID]*ClientStream
	closed  bool
	onClose func(error)

	// Dropped counts queued batches whose payload deltas were shed because
	// a stream's queue was at its bound. The first shed of an episode is
	// announced in the stream with a QueueShedDetail marker; control deltas
	// (flow_status, rewrite_request, termination) are never dropped (see
	// ClientStream.push).
	Dropped metrics.Counter

	// DecodeErrors counts batch frames whose payload did not decode. The
	// session survives (one bad stream never kills the multiplexed
	// session), and the addressed stream, if live, is told with a
	// FlowDegraded "undecodable batch" — a lost batch is a gap the endpoint
	// must hear about (axiom 1).
	DecodeErrors metrics.Counter

	// Relay makes a client a relay's upstream leg: rewrite deltas pass
	// through to Next for the relay to forward, and a leg opened with OpenLeg
	// keeps no stored request. The relay's downstream ServerStream merges each
	// rewrite as it is forwarded, and that copy is the one it repairs from.
	// Proxies set this; device clients leave it false and fold rewrites into
	// the stream's stored request invisibly.
	Relay bool
}

// eventBuffer bounds the batches a stream queues for Next: at the bound the
// oldest payload is shed, mirroring best-effort delivery under client stall;
// control deltas are never shed.
const eventBuffer = 256

// The FlowDetails of a shed episode's markers (see push), on relay legs and
// device streams alike.
const (
	QueueShedDetail      = overload.ShedMarkerPrefix + "client-queue"
	QueueRecoveredDetail = overload.RecoveredMarkerPrefix + "client-queue"
)

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
// batches wait in a queue the stream owns until Next hands them out — or, on
// a relay leg (Forward), until the writer it forwards to takes them.
type ClientStream struct {
	client *Client
	sid    StreamID

	mu         sync.Mutex
	req        request // current (possibly rewritten) request; empty on a relay leg
	terminated bool
	shedding   bool // a shed episode's marker is queued and its recovery is not
	linked     bool // a forwarded leg is on its writer's ready list or taking its turn; beside the flags, it packs with them
	lastSeq    uint64

	// The queue: n batches from head in a ring that starts in inline and
	// doubles only while more are pending.
	ring    []*Received
	head, n int
	inline  [4]*Received
	ready   sync.Cond // on mu: a batch was queued, or the stream ended

	// A forwarded relay leg's batches go to the writer of to's session, which
	// hands them to fwd; nextLeg, behind it on the writer's ready list, is
	// under the writer's mu.
	to      *ServerStream
	fwd     Forwarder
	nextLeg *ClientStream
}

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
	return st.pop(), true
}

// pop takes the oldest queued batch; the caller holds st.mu and knows one is
// queued. Draining a shed episode's queue to half the bound queues its
// recovery marker.
func (st *ClientStream) pop() *Received {
	rc := st.ring[st.head]
	st.ring[st.head] = nil
	st.head = (st.head + 1) % len(st.ring)
	st.n--
	if st.shedding && st.n <= eventBuffer/2 && !st.terminated {
		st.shedding = false
		rec := lease(nil)
		rec.Deltas = append(rec.slots[:0], FlowStatusDelta(FlowRecovered, QueueRecoveredDetail))
		st.push(rec)
	}
	return rc
}

// Forward makes st, a Relay leg, a feed of down: from now on the writer of
// down's session, not Next, takes the leg's batches, in order, and hands each
// to f. The ring stays the one place a batch waits and is shed.
func (st *ClientStream) Forward(down *ServerStream, f Forwarder) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.to, st.fwd = down, f
	if st.n > 0 {
		st.link()
	}
}

// link puts a forwarded leg on its writer's ready list unless it is there;
// the caller holds st.mu, and the leg has batches.
func (st *ClientStream) link() {
	if st.to != nil && !st.linked {
		st.linked = true
		st.to.srv.sess.out.link(st)
	}
}

// turn, on the writer, hands the leg's oldest batch to its Forwarder and
// reports whether the leg has more, and so keeps its place on the list.
func (st *ClientStream) turn() bool {
	st.mu.Lock()
	rc := st.pop()
	st.linked = st.n > 0
	more, f := st.linked, st.fwd
	st.mu.Unlock()
	f.Forward(rc)
	return more
}

// Request returns a copy of the stream's current subscription request,
// reflecting any rewrites (empty on a relay leg, which keeps none).
// Devices use this to resubscribe after failures.
func (st *ClientStream) Request() Subscribe {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.req.subscribe()
}

// HeaderField returns one header key of the current request without copying
// the rest.
func (st *ClientStream) HeaderField(key string) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	v, _ := st.req.lookup(key)
	return v
}

// LastSeq returns the highest payload sequence number received.
//
//brlint:allow(test-only-export) the per-stream table of ROADMAP item 4(c) (its seq column) is its caller
func (st *ClientStream) LastSeq() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastSeq
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
// or a stored (rewritten) one reopening a stream after a failure. The stream
// stores it as pairs, in the order it sends them.
func (c *Client) Subscribe(sub Subscribe) (*ClientStream, error) {
	req := request{body: sub.Body}
	if sub.Header != nil {
		req.pairs = make([]pair, 0, max(len(sub.Header), storedRoom))
		for k, v := range sub.Header {
			req.pairs = append(req.pairs, pair{k, v})
		}
	}
	return c.open(new(ClientStream), req, nil)
}

// OpenLeg opens a Relay client's leg for down in st, a zero ClientStream its
// caller owns and opens no other leg in: its subscribe is encoded from down's
// stored request, and it stores none.
func (c *Client) OpenLeg(st *ClientStream, down *ServerStream) error {
	_, err := c.open(st, request{}, down)
	return err
}

// open registers st, a zero stream, storing req, and sends as its subscribe
// down's request, or req if down is nil, encoded under the holder's lock.
func (c *Client) open(st *ClientStream, req request, down *ServerStream) (*ClientStream, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("client %s: %w", c.sess.name, ErrSessionClosed)
	}
	c.nextSID++
	sid := c.nextSID
	st.client, st.sid, st.req = c, sid, req
	st.ring = st.inline[:]
	st.ready.L = &st.mu
	c.streams[sid] = st
	c.mu.Unlock()

	holder, from := &st.mu, &st.req
	if down != nil {
		holder, from = &down.mu, &down.req
	}
	buf := frame.GetBuf()
	defer frame.PutBuf(buf)
	frame.Begin(buf, byte(FrameSubscribe), uint64(sid))
	holder.Lock()
	from.put(buf)
	holder.Unlock()
	if err := c.sess.write(buf); err != nil {
		c.removeStream(sid)
		return nil, err
	}
	return st, nil
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
				st.req.patch(d)
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

// push queues rc for Next, or a forwarded leg's writer; the caller holds
// st.mu. At the bound the oldest queued batch that still carries payload
// loses it in place (counted in Dropped). Its control deltas keep their
// slot, so nothing is reordered and a rewrite is forwarded exactly as it
// arrived; a queue of nothing but control outgrows the bound rather than
// shed any. A batch left empty leaves the queue and is released. The first
// shed of an episode leaves a FlowDegraded marker where the first payload it
// strips was, so the endpoint hears of the gap where it lies; once the queue
// is drained to half the bound, a FlowRecovered marker is queued behind what
// is left.
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
	st.link()
}

func (st *ClientStream) shedOldest() {
	for i := range st.n {
		rc := st.ring[(st.head+i)%len(st.ring)]
		kept, shed := 0, false
		for _, d := range rc.Deltas {
			if d.Type == DeltaPayload {
				if !st.shedding {
					st.shedding = true
					rc.Deltas[kept] = FlowStatusDelta(FlowDegraded, QueueShedDetail)
					kept++
				}
				shed = true
				continue
			}
			rc.Deltas[kept] = d
			kept++
		}
		if !shed {
			continue
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

// UpstreamLostDetail is the FlowDetail of the degraded flow status that says
// "my upstream is gone", with one meaning at every hop: a client stream
// synthesises it when its transport dies, and a relay that could not re-route
// hands it down (edge.Proxy). Whoever holds the stream's stored request below
// repairs from it — a relay re-routes, a device reopens (Recovery.Step).
const UpstreamLostDetail = "upstream lost"

// sessionLost queues a synthetic degraded flow status and ends the stream:
// the transport under every stream on the session is gone.
func (st *ClientStream) sessionLost() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.terminated {
		return
	}
	rc := lease(nil)
	rc.Deltas = append(rc.slots[:0], FlowStatusDelta(FlowDegraded, UpstreamLostDetail))
	st.push(rc)
	st.terminated = true
	st.ready.Broadcast()
}
