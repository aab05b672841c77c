// Package burst implements BURST (Bladerunner Unified Request Stream
// Transport), the application-level request-stream protocol of paper §3.5.
//
// BURST connects client devices to BRASS instances across multiple hops
// (device → POP → reverse proxy → BRASS). Each request-stream is a
// first-class entity: it is routed independently, fails independently, and
// is multiplexed with other streams over whatever underlying byte transport
// a hop uses (here: any net.Conn, including edge.Pipe and TCP).
//
// The transport guarantee mirrors TCP's: deltas sent on a stream arrive in
// order, and failures are signalled to the participating nodes. Because a
// stream spans several participants, failure signalling is richer than a
// socket error: flow_status deltas carry failure and recovery notifications
// to every node on the path (paper §4, axiom 1). rewrite_request deltas let
// the serving BRASS patch the stored subscription request used for
// reconnection, enabling sticky routing, resumption, and redirects.
package burst

import (
	"bytes"
	"fmt"
	"sync"
	"unsafe"

	"bladerunner/internal/frame"
	"bladerunner/internal/trace"
)

// StreamID identifies a request-stream within one session. IDs are chosen
// by the stream initiator (the device, or a proxy acting for one).
type StreamID uint64

// Header carries the properties of a subscription request: the application
// name, the GraphQL subscription / topic, client version, sticky-routing
// hints, resume tokens, and anything a BRASS patches in via rewrites. The
// paper standardizes on JSON for headers; here they stay a string map every
// proxy can read, carried as counted key/value pairs (DESIGN.md §7e).
type Header map[string]string

// Well-known header keys used across the system.
const (
	// HdrApp names the Bladerunner application (e.g. "livecomments").
	HdrApp = "app"
	// HdrSubscription is the client's subscription expression, resolved
	// by the WAS into a concrete topic.
	HdrSubscription = "subscription"
	// HdrTopic is the concrete Pylon topic (filled by BRASS/WAS).
	HdrTopic = "topic"
	// HdrUser identifies the subscribing user.
	HdrUser = "user"
	// HdrStickyBRASS pins the stream to a BRASS instance on reconnect
	// (sticky routing; written by a rewrite as soon as a stream lands).
	HdrStickyBRASS = "sticky-brass"
	// HdrClientVersion expresses client capabilities to the BRASS.
	HdrClientVersion = "client-version"
	// HdrCursor is the stream's resume position ("epoch.seq", or the
	// sentinels internal/durlog accepts): seq is the highest the serving
	// BRASS decided to push, epoch the host log's epoch for the topic, 0
	// on a host without a log. The server rewrites it forward as deltas are
	// decided — over-claiming whenever admission shed the payload the
	// rewrite rode with — the holder lowers it to the stream's resume point
	// (Recovery.Reopen) on every reopen, and the serving BRASS answers it
	// with a gap-free log catch-up — or expires it, NEVER fabricating one,
	// and serves the same suffix from the application's backend instead.
	// Like HdrAdmissionState it lives in the stored request, so failover
	// rewrites and resubscriptions carry it across hosts.
	HdrCursor = "cursor"
	// HdrTraceStream is a stable stream identity stamped by the device at
	// subscribe time. Rewrites and resubscriptions preserve it (rewrites
	// patch individual keys; resubscribe replays the stored request), so
	// spans recorded before and after a recovery join on the same value —
	// the trace plane's view of "the same stream".
	HdrTraceStream = "trace-stream"
)

// wellKnownKeys are the Hdr* constants above. Header decode returns them
// instead of copying "cursor" out of every frame at every hop.
var wellKnownKeys = [...]string{HdrApp, HdrSubscription, HdrTopic, HdrUser, HdrStickyBRASS,
	HdrClientVersion, HdrCursor, HdrTraceStream}

// Clone returns a deep copy of the header. It is for a holder's resubscribe;
// nothing on a per-delta path calls it.
func (h Header) Clone() Header {
	if h == nil {
		return nil
	}
	out := make(Header, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// Merge sets every key of patch on h in place — what the header of a
// rewrite_request means (DESIGN.md §7e): a patch, not a replacement — and
// returns h, allocated if it was nil. The caller owns h and holds its lock.
func (h Header) Merge(patch Header) Header {
	if h == nil && len(patch) > 0 {
		h = make(Header, len(patch))
	}
	for k, v := range patch {
		h[k] = v
	}
	return h
}

// FrameType discriminates the frames exchanged on a BURST session.
type FrameType uint8

// Frame types. Subscribe/Cancel flow upstream (toward the BRASS); Batch
// flows downstream. Types 3, 5 and 6 stay reserved, never reused. 3 is the
// paper's ack, which this BURST does not have (DESIGN.md §4): the reader
// frames it and a server counts it as a decode error. 5 and 6 were ping and
// pong: liveness is the transport's (a TCP conn's kernel keepalive, a pipe's
// close), and the reader, whose highest type is FrameBatch, closes the
// session on either.
const (
	FrameSubscribe FrameType = 1
	FrameCancel    FrameType = 2
	FrameBatch     FrameType = 4
)

func (t FrameType) String() string {
	switch t {
	case FrameSubscribe:
		return "subscribe"
	case FrameCancel:
		return "cancel"
	case FrameBatch:
		return "batch"
	default:
		return fmt.Sprintf("frametype(%d)", uint8(t))
	}
}

// Subscribe is the payload of a FrameSubscribe: it instantiates a stream.
type Subscribe struct {
	// Header indicates the properties of the request, visible to and
	// interpreted by proxies for routing.
	Header Header
	// Body is an opaque blob only the target BRASS understands.
	Body []byte
}

// Patch folds a rewrite_request delta into the stored request s: the header
// patch is merged, a nil body leaves the body unchanged. It is for a holder
// that keeps its stored request as a Subscribe (a megadevice trunk stream;
// BURST's own streams keep pairs); the caller holds the request's lock. It
// keeps the patch's strings, so d must be owned, not lent: the trunk's come
// from DecodeBatch, which copies them.
func (s *Subscribe) Patch(d *Delta) {
	s.Header = s.Header.Merge(d.Header)
	if d.Body != nil {
		s.Body = append([]byte(nil), d.Body...)
	}
}

// HeaderField returns one header key of the request (Stored, for a holder
// that keeps the request under its own lock).
func (s *Subscribe) HeaderField(key string) string { return s.Header[key] }

// pair is one key and its value in a stored request's header.
type pair struct{ key, val string }

// request is a stored request as its holder keeps it (DESIGN.md §7e): the
// header's pairs in wire order (nil when the frame carried no header; a key
// on the wire twice stays twice and the last one counts, as in a map decode),
// then keys patches add; the body; and the room patches copy into. The holder's
// lock guards it.
type request struct {
	pairs []pair
	body  []byte
	// room is append-only: a patch writes behind what it holds and a full room
	// is replaced, never rewritten, so no string an accessor handed out changes.
	room []byte
}

func (q *request) lookup(key string) (v string, ok bool) {
	for _, p := range q.pairs {
		if p.key == key {
			v, ok = p.val, true
		}
	}
	return v, ok
}

// patch folds a rewrite_request delta in: each key of the patch is set in its
// place, or behind the rest; a nil body leaves the body unchanged. The delta is
// borrowed: each value the request keeps, and each key that is not a Hdr*
// constant, is copied into the room, and a value equal to the stored one
// writes nothing.
func (q *request) patch(d *Delta) {
next:
	for k, v := range d.Header {
		for i := len(q.pairs) - 1; i >= 0; i-- {
			if q.pairs[i].key == k {
				if q.pairs[i].val != v {
					q.pairs[i].val = q.keep(v)
				}
				continue next
			}
		}
		q.pairs = append(q.pairs, pair{q.keepKey(k), q.keep(v)})
	}
	if d.Body != nil {
		q.body = append([]byte(nil), d.Body...)
	}
}

// keep copies s behind what the room holds and returns the copy; a room too
// full for s is replaced by a fresh one of headerRoom bytes, or of s's size.
func (q *request) keep(s string) string {
	if s == "" {
		return ""
	}
	if len(s) > cap(q.room)-len(q.room) {
		q.room = make([]byte, 0, max(headerRoom, len(s)))
	}
	q.room = append(q.room, s...)
	return borrow(q.room[len(q.room)-len(s):])
}

// keepKey is keep for a key: a Hdr* key is its constant.
func (q *request) keepKey(k string) string {
	for _, w := range wellKnownKeys {
		if k == w {
			return w
		}
	}
	return q.keep(k)
}

// subscribe returns a copy of the request as a message.
func (q *request) subscribe() Subscribe {
	var s Subscribe
	if q.body != nil {
		s.Body = append([]byte(nil), q.body...)
	}
	if q.pairs != nil {
		s.Header = make(Header, len(q.pairs))
		for _, p := range q.pairs {
			s.Header[p.key] = p.val
		}
	}
	return s
}

// put appends the request as a subscribe payload, its pairs in their order: a
// relay that re-sends a request no rewrite has touched sends the bytes it got.
func (q *request) put(b *bytes.Buffer) {
	if q.pairs == nil {
		b.WriteByte(0)
	} else {
		b.WriteByte(1)
		frame.PutUvarint(b, uint64(len(q.pairs)))
		for _, p := range q.pairs {
			frame.PutString(b, p.key)
			frame.PutString(b, p.val)
		}
	}
	frame.PutBytes(b, q.body)
}

// storedRoom is how many pairs a server stream holds inline: the handful a
// subscribe carries and its rewrites add. A device's stream gets as many.
const storedRoom = 6

// headerRoom is how many bytes of a subscribe's header a server stream holds
// inline for its pairs to slice: the tree's subscribes encode in 47 to 117.
const headerRoom = 128

// Cancel is the payload of a FrameCancel: it terminates a stream from the
// client side.
type Cancel struct {
	Reason string
}

// DeltaType discriminates the deltas inside a batch (paper §3.5).
type DeltaType uint8

// Delta types.
const (
	// DeltaPayload carries a social-graph update (GraphQL payload).
	DeltaPayload DeltaType = iota + 1
	// DeltaFlowStatus signals failure or recovery of the stream path.
	DeltaFlowStatus
	// DeltaRewriteRequest patches the stored subscription request used
	// for reconnection.
	DeltaRewriteRequest
	// DeltaTermination ends the stream from the server side.
	DeltaTermination
)

func (t DeltaType) String() string {
	switch t {
	case DeltaPayload:
		return "payload"
	case DeltaFlowStatus:
		return "flow_status"
	case DeltaRewriteRequest:
		return "rewrite_request"
	case DeltaTermination:
		return "termination"
	default:
		return fmt.Sprintf("deltatype(%d)", uint8(t))
	}
}

// FlowCode enumerates flow_status conditions.
type FlowCode uint8

// Flow status codes.
const (
	// FlowDegraded: a path component failed; delivery may be lossy while
	// recovery is in progress.
	FlowDegraded FlowCode = iota + 1
	// FlowRecovered: the path healed; the stream remains intact but
	// deltas may have been dropped in between.
	FlowRecovered
	// FlowRerouted: the stream was re-established, possibly to a
	// different BRASS; the application decides how to resynchronize.
	FlowRerouted
)

func (c FlowCode) String() string {
	switch c {
	case FlowDegraded:
		return "degraded"
	case FlowRecovered:
		return "recovered"
	case FlowRerouted:
		return "rerouted"
	default:
		return fmt.Sprintf("flowcode(%d)", uint8(c))
	}
}

// Delta is one element of a server-to-client batch.
type Delta struct {
	Type DeltaType
	// Seq is the application-assigned sequence number of a payload delta
	// (0 when unused).
	Seq uint64
	// Payload is the update body for DeltaPayload.
	Payload []byte
	// Flow describes a DeltaFlowStatus.
	Flow FlowCode
	// FlowDetail is a human-readable description of the flow event.
	FlowDetail string
	// Header is the subscription header PATCH of a DeltaRewriteRequest:
	// the keys it carries are set on the stored request, every other key
	// is kept (nil or empty changes nothing).
	Header Header
	// Body is the replacement subscription body for DeltaRewriteRequest
	// (nil leaves the body unchanged).
	Body []byte
	// Reason describes a DeltaTermination.
	Reason string
	// Trace is the trace context of the mutation that produced a payload
	// delta (zero when unsampled). It rides the wire so proxies and the
	// device can close their hop spans against the originating trace.
	Trace trace.ID
}

// PayloadDelta builds a payload delta.
func PayloadDelta(seq uint64, payload []byte) Delta {
	return Delta{Type: DeltaPayload, Seq: seq, Payload: payload}
}

// FlowStatusDelta builds a flow_status delta.
func FlowStatusDelta(code FlowCode, detail string) Delta {
	return Delta{Type: DeltaFlowStatus, Flow: code, FlowDetail: detail}
}

// RewriteDelta builds a rewrite_request delta.
func RewriteDelta(h Header, body []byte) Delta {
	return Delta{Type: DeltaRewriteRequest, Header: h, Body: body}
}

// TerminationDelta builds a termination delta.
func TerminationDelta(reason string) Delta {
	return Delta{Type: DeltaTermination, Reason: reason}
}

// Batch is the payload of a FrameBatch: a group of deltas transmitted and
// applied atomically (paper §3.5: "processed client side atomically, in an
// all or nothing fashion").
type Batch struct {
	Deltas []Delta
}

// Received is one batch handed out by ClientStream.Next, LEASED from a pool
// together with what its deltas alias: the payload bytes, a one- or two-delta
// batch's backing array, the header-patch maps. The caller of Next may filter
// Deltas in place and is the only one who may Release: at most once, keeping
// nothing that aliases the lease (a Delta's Payload, Body, Header, FlowDetail
// or Reason). It need not: the GC takes an unreleased lease (DESIGN.md §7e).
type Received struct {
	Deltas []Delta

	buf   bytes.Buffer // the batch payload the deltas alias
	slots [2]Delta
	hdrs  [2]Header // this batch's patch maps: cleared by Release, decoded into again
	nhdr  int       // how many of hdrs this batch uses
}

// What a lease takes back to the pool: a payload buffer up to maxLeasedBuf,
// patch maps of up to maxLeasedPairs (a larger patch gets a map of its own).
const maxLeasedBuf, maxLeasedPairs = 64 << 10, 8

var recvPool = sync.Pool{New: func() any { return new(Received) }}

// lease copies p, a borrowed batch payload, into a pooled receive unit.
//
//brlint:hotpath per-frame receive: pooled unit, bytes appended to its pooled buffer.
func lease(p []byte) *Received {
	rc := recvPool.Get().(*Received)
	rc.buf.Write(p)
	return rc
}

// header returns an empty map for a patch of n pairs: the lease's own while
// it has one free, a fresh one otherwise (always for DecodeBatch's nil rc).
func (rc *Received) header(n int) Header {
	if rc == nil || rc.nhdr == len(rc.hdrs) || n > maxLeasedPairs {
		return make(Header, n)
	}
	h := &rc.hdrs[rc.nhdr]
	if rc.nhdr++; *h == nil {
		*h = make(Header, n)
	}
	return *h
}

// Release returns the lease to the pool (see Received for who may call it).
//
//brlint:hotpath per-batch lease return: clears in place, pools.
func (rc *Received) Release() {
	if poison != "" && rc.Deltas == nil {
		panic("burst: lease released twice")
	}
	poisonBytes(rc.buf.Bytes())
	rc.slots = [2]Delta{} // drop what the deltas referenced
	for _, h := range rc.hdrs[:rc.nhdr] {
		clear(h)
	}
	rc.Deltas, rc.nhdr = nil, 0
	rc.buf.Reset()
	if rc.buf.Cap() <= maxLeasedBuf {
		recvPool.Put(rc)
	}
}

// Frame is one unit on the wire: a type, the stream it belongs to, and a
// binary payload appropriate to the type (DESIGN.md §7e).
type Frame struct {
	Type FrameType
	SID  StreamID
	// Payload is the encoding of Subscribe/Cancel/Batch, and the Decode
	// functions alias it. From ReadFrame it is a fresh allocation the caller
	// owns; in FrameHandler.HandleFrame it is borrowed for the call.
	Payload []byte
}

// minDeltaSize is the encoding of an all-zero delta: every field is on the
// wire, each at least one byte.
const minDeltaSize = 9

// putDelta appends one delta: every field, in declaration order.
//
//brlint:hotpath per-delta encode into the pooled frame buffer.
func putDelta(b *bytes.Buffer, d *Delta) {
	b.WriteByte(byte(d.Type))
	frame.PutUvarint(b, d.Seq)
	frame.PutBytes(b, d.Payload)
	b.WriteByte(byte(d.Flow))
	frame.PutString(b, d.FlowDetail)
	frame.PutStringMap(b, d.Header)
	frame.PutBytes(b, d.Body)
	frame.PutString(b, d.Reason)
	frame.PutUvarint(b, uint64(d.Trace))
}

// readPairs reads what frame.PutStringMap wrote, in wire order, into pairs
// backed by into while they fit it (nil for a nil header), with at most ONE
// copy (DESIGN.md §7e rule 1a): a skip pass finds the pairs' encoded span, and
// every value and every key that is not a well-known constant is a slice of
// it. A reader with an Own — a lease — lends the span from it; otherwise the
// span is copied once, into room when it fits (used is then its length) and
// into a string of its own when not: a subscribe's header outlives its frame
// and must not pin it. The loops need no error check: Count bounds them by the
// input and a failed Reader yields zero values until Done.
func readPairs(r *frame.Reader, into []pair, room []byte) (pairs []pair, used int) {
	if r.Byte() == 0 {
		return nil, 0
	}
	n := r.Count(2) // a pair is at least two length bytes
	span := r.B
	for i := 0; i < 2*n; i++ {
		r.Bytes()
	}
	span = span[:len(span)-len(r.B)]
	var own string
	if r.Own == "" && len(span) <= len(room) {
		used = copy(room, span)
		own = borrow(room[:used])
	} else {
		own = r.StrOf(span)
	}
	ps := frame.Reader{B: span, Own: own}
	if into == nil || cap(into) < n {
		into = make([]pair, 0, n)
	}
	for into = into[:0]; n > 0; n-- {
		into = append(into, pair{headerKey(&ps), ps.Str()})
	}
	return into, used
}

// readHeader reads a rewrite patch into a map from rc; a key on the wire
// twice folds in wire order, last wins. Into a lease the keys and values are
// borrowed from it; DecodeBatch's (nil rc) slice one copy.
func readHeader(r *frame.Reader, rc *Received) Header {
	var buf [maxLeasedPairs]pair
	ps, _ := readPairs(r, buf[:0], nil)
	if ps == nil {
		return nil
	}
	h := rc.header(len(ps))
	for _, p := range ps {
		h[p.key] = p.val
	}
	return h
}

func headerKey(r *frame.Reader) string {
	b := r.Bytes()
	for _, k := range wellKnownKeys {
		if string(b) == k {
			return k
		}
	}
	return r.StrOf(b)
}

// readDelta reads one delta into d, every field. Payload and Body alias the
// input.
func readDelta(r *frame.Reader, d *Delta, rc *Received) {
	d.Type = DeltaType(r.Byte())
	d.Seq = r.Uvarint()
	d.Payload = r.Bytes()
	d.Flow = FlowCode(r.Byte())
	d.FlowDetail = r.Str()
	d.Header = readHeader(r, rc)
	d.Body = r.Bytes()
	d.Reason = r.Str()
	d.Trace = trace.ID(r.Uvarint())
}

// borrow is p as a string that aliases it: valid while p's bytes are.
func borrow(p []byte) string { return unsafe.String(unsafe.SliceData(p), len(p)) }

//brlint:hotpath per-batch encode into the pooled frame buffer.
func putBatch(b *bytes.Buffer, deltas []Delta) {
	frame.PutUvarint(b, uint64(len(deltas)))
	for i := range deltas {
		putDelta(b, &deltas[i])
	}
}

// putMsg appends the payload encoding of v — a Subscribe, Cancel or Batch —
// and reports whether v was one.
//
//brlint:hotpath per-frame payload encode into the pooled frame buffer.
func putMsg(b *bytes.Buffer, v any) bool {
	switch m := v.(type) {
	case Batch:
		putBatch(b, m.Deltas)
	case Subscribe:
		frame.PutStringMap(b, m.Header)
		frame.PutBytes(b, m.Body)
	case Cancel:
		frame.PutString(b, m.Reason)
	default:
		return false
	}
	return true
}

// DecodeCancel parses a Cancel payload. Its Reason ALIASES b, as a payload
// field does: valid while b is (in OnCancel, until it returns).
func DecodeCancel(b []byte) (Cancel, error) {
	r := frame.Reader{B: b}
	p := r.Bytes()
	if err := r.Done(); err != nil {
		return Cancel{}, fmt.Errorf("burst: decode cancel: %w", err)
	}
	return Cancel{Reason: borrow(p)}, nil
}

// DecodeBatch parses a Batch payload in one pass. The deltas' Payload and
// Body alias b; the []Delta is the only allocation for a batch without
// strings or headers.
func DecodeBatch(b []byte) (Batch, error) {
	deltas, err := decodeBatch(b, nil)
	return Batch{Deltas: deltas}, err
}

// decodeBatch is DecodeBatch into a lease's slots and maps, where they
// suffice, instead of fresh ones: the same pass, the same checks. A lease's
// strings are borrowed from its bytes, as a cancel's reason is from its frame.
func decodeBatch(b []byte, rc *Received) ([]Delta, error) {
	r := frame.Reader{B: b}
	if rc != nil {
		r.Own = borrow(b)
	}
	var deltas []Delta
	if n := r.Count(minDeltaSize); rc != nil && n <= len(rc.slots) {
		deltas = rc.slots[:n]
	} else {
		deltas = make([]Delta, n)
	}
	for i := range deltas {
		readDelta(&r, &deltas[i], rc)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("burst: decode batch: %w", err)
	}
	return deltas, nil
}
