// Package burst implements BURST (Bladerunner Unified Request Stream
// Transport), the application-level request-stream protocol of paper §3.5.
//
// BURST connects client devices to BRASS instances across multiple hops
// (device → POP → reverse proxy → BRASS). Each request-stream is a
// first-class entity: it is routed independently, fails independently, and
// is multiplexed with other streams over whatever underlying byte transport
// a hop uses (here: any net.Conn, including net.Pipe and TCP).
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
	// HdrResumeSeq is the sequence number the serving BRASS last decided
	// to push (resumption; maintained by rewrites). It over-claims whenever
	// admission shed the payload the rewrite rode with, so its holder lowers
	// it to the stream's resume point (Recovery.Reopen) on every reopen.
	HdrResumeSeq = "resume-seq"
	// HdrClientVersion expresses client capabilities to the BRASS.
	HdrClientVersion = "client-version"
	// HdrCursor is the durable-log resume cursor ("epoch.seq", or the
	// sentinels internal/durlog accepts): the server rewrites it forward
	// as deltas are delivered, the holder lowers it to the stream's resume
	// point (Recovery.Reopen) on every reopen, and the serving BRASS answers
	// it with a gap-free log catch-up — or expires it, NEVER fabricating one, and
	// serves the same suffix from the application's backend instead. Like
	// HdrAdmissionState it lives in the stored request, so failover
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
// instead of copying "resume-seq" out of every frame at every hop.
var wellKnownKeys = [...]string{HdrApp, HdrSubscription, HdrTopic, HdrUser, HdrStickyBRASS,
	HdrResumeSeq, HdrClientVersion, HdrCursor, HdrTraceStream}

// Clone returns a deep copy of the header. It is for stream open and
// Request(); nothing on a per-delta path calls it.
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

// Frame types. Subscribe/Cancel/Ack flow upstream (toward the BRASS);
// Batch flows downstream; Ping/Pong flow both ways for liveness.
const (
	FrameSubscribe FrameType = iota + 1
	FrameCancel
	FrameAck
	FrameBatch
	FramePing
	FramePong
)

func (t FrameType) String() string {
	switch t {
	case FrameSubscribe:
		return "subscribe"
	case FrameCancel:
		return "cancel"
	case FrameAck:
		return "ack"
	case FrameBatch:
		return "batch"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
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
// patch is merged, a nil body leaves the body unchanged. Every holder of a
// stored request merges a rewrite here; the caller holds the request's lock.
func (s *Subscribe) Patch(d *Delta) {
	s.Header = s.Header.Merge(d.Header)
	if d.Body != nil {
		s.Body = append([]byte(nil), d.Body...)
	}
}

// HeaderField returns one header key of the request (Stored, for a holder
// that keeps the request under its own lock).
func (s *Subscribe) HeaderField(key string) string { return s.Header[key] }

// Cancel is the payload of a FrameCancel: it terminates a stream from the
// client side.
type Cancel struct {
	Reason string
}

// Ack is the payload of a FrameAck: the client acknowledges deltas up to
// and including Seq (used by applications implementing reliable delivery).
type Ack struct {
	Seq uint64
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
// nothing that aliases the lease (a Delta's Payload, Body, Header; strings are
// copies). It need not: the GC takes an unreleased lease (DESIGN.md §7e).
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
// binary payload appropriate to the type (DESIGN.md §7e). Ping/Pong frames
// have SID 0 and empty payloads.
type Frame struct {
	Type FrameType
	SID  StreamID
	// Payload is the encoding of Subscribe/Cancel/Ack/Batch, and the Decode
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

// readHeader reads what frame.PutStringMap wrote, into a map from rc, with
// ONE copy (DESIGN.md §7e rule 1a): a skip pass finds the pairs' encoded
// span, which is copied once, and every value and every key that is not a
// well-known constant is a slice of that copy — a header outlives its frame
// and must not pin it. The loops need no error check: Count bounds them by
// the input and a failed Reader yields zero values until Done.
func readHeader(r *frame.Reader, rc *Received) Header {
	if r.Byte() == 0 {
		return nil
	}
	n := r.Count(2) // a pair is at least two length bytes
	span := r.B
	for i := 0; i < 2*n; i++ {
		r.Bytes()
	}
	span = span[:len(span)-len(r.B)]
	pairs := frame.Reader{B: span, Own: string(span)}
	h := rc.header(n)
	for ; n > 0; n-- {
		h[headerKey(&pairs)] = pairs.Str()
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

//brlint:hotpath per-batch encode into the pooled frame buffer.
func putBatch(b *bytes.Buffer, deltas []Delta) {
	frame.PutUvarint(b, uint64(len(deltas)))
	for i := range deltas {
		putDelta(b, &deltas[i])
	}
}

// putMsg appends the payload encoding of v — a Subscribe, Cancel, Ack or
// Batch, or nil for an empty payload — and reports whether v was one.
//
//brlint:hotpath per-frame payload encode into the pooled frame buffer.
func putMsg(b *bytes.Buffer, v any) bool {
	switch m := v.(type) {
	case nil:
	case Batch:
		putBatch(b, m.Deltas)
	case Subscribe:
		frame.PutStringMap(b, m.Header)
		frame.PutBytes(b, m.Body)
	case Cancel:
		frame.PutString(b, m.Reason)
	case Ack:
		frame.PutUvarint(b, m.Seq)
	default:
		return false
	}
	return true
}

// DecodeSubscribe parses a Subscribe payload. The header's strings are slices
// of ONE copy of the header's bytes (a request outlives its frame); Body
// aliases b.
func DecodeSubscribe(b []byte) (Subscribe, error) {
	r := frame.Reader{B: b}
	s := Subscribe{Header: readHeader(&r, nil), Body: r.Bytes()}
	if err := r.Done(); err != nil {
		return Subscribe{}, fmt.Errorf("burst: decode subscribe: %w", err)
	}
	return s, nil
}

// DecodeCancel parses a Cancel payload.
func DecodeCancel(b []byte) (Cancel, error) {
	r := frame.Reader{B: b}
	c := Cancel{Reason: r.Str()}
	if err := r.Done(); err != nil {
		return Cancel{}, fmt.Errorf("burst: decode cancel: %w", err)
	}
	return c, nil
}

// DecodeAck parses an Ack payload.
func DecodeAck(b []byte) (Ack, error) {
	r := frame.Reader{B: b}
	a := Ack{Seq: r.Uvarint()}
	if err := r.Done(); err != nil {
		return Ack{}, fmt.Errorf("burst: decode ack: %w", err)
	}
	return a, nil
}

// DecodeBatch parses a Batch payload in one pass. The deltas' Payload and
// Body alias b; the []Delta is the only allocation for a batch without
// strings or headers.
func DecodeBatch(b []byte) (Batch, error) {
	deltas, err := decodeBatch(b, nil)
	return Batch{Deltas: deltas}, err
}

// decodeBatch is DecodeBatch into a lease's slots and maps, where they
// suffice, instead of fresh ones: the same pass, the same checks.
func decodeBatch(b []byte, rc *Received) ([]Delta, error) {
	r := frame.Reader{B: b}
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
