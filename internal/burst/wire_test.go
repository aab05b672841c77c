package burst

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"bladerunner/internal/frame"
	"bladerunner/internal/trace"
)

// encodeMsg returns the payload bytes SendMsg would put behind the frame
// header for v (a copy: the pooled buffer goes back).
func encodeMsg(v any) []byte {
	buf := frame.GetBuf()
	defer frame.PutBuf(buf)
	if !putMsg(buf, v) {
		panic("encodeMsg: not a BURST message")
	}
	return append([]byte(nil), buf.Bytes()...)
}

func frameStream(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameSubscribe, SID: 1, Payload: encodeMsg(Subscribe{Header: Header{"app": "lvc"}})},
		{Type: FrameCancel, SID: 42, Payload: encodeMsg(Cancel{})},
		{Type: FrameAck, SID: 7, Payload: encodeMsg(Ack{Seq: 9})},
		{Type: FrameBatch, SID: 1 << 40, Payload: encodeMsg(Batch{})},
		{Type: FramePing},
		{Type: FramePong},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for i, want := range frames {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.SID != want.SID || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Errorf("expected EOF at end, got %v", err)
	}
}

func TestReadFrameRejectsUnknownType(t *testing.T) {
	wire := append([]byte{0xEE}, make([]byte, 12)...)
	if _, err := ReadFrame(frameStream(wire)); err == nil {
		t.Error("unknown frame type accepted")
	}
}

func TestReadFrameRejectsOversizedPayload(t *testing.T) {
	wire := append([]byte{byte(FrameBatch)}, make([]byte, 8)...)
	wire = append(wire, 0xFF, 0xFF, 0xFF, 0xFF) // 4 GiB length
	if _, err := ReadFrame(frameStream(wire)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized payload: %v", err)
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	err := WriteFrame(io.Discard, Frame{Type: FrameBatch, Payload: make([]byte, frame.MaxPayload+1)})
	if err == nil {
		t.Error("oversized write accepted")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: FrameBatch, SID: 1, Payload: []byte("abcdef")}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	if _, err := ReadFrame(frameStream(wire[:len(wire)-3])); err == nil {
		t.Error("truncated payload accepted")
	}
	// A torn header is an error close, distinct from the clean EOF between
	// frames.
	if _, err := ReadFrame(frameStream(wire[:5])); err != io.ErrUnexpectedEOF {
		t.Errorf("torn header: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestWriteFrameSingleWrite pins the one-buffer encode: header and payload
// reach the transport together.
func TestWriteFrameSingleWrite(t *testing.T) {
	var w countingWriter
	if err := WriteFrame(&w, Frame{Type: FrameBatch, SID: 3, Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 || w.bytes != frame.HeaderSize+len("payload") {
		t.Errorf("WriteFrame made %d writes of %d bytes, want 1 of %d", w.writes, w.bytes, frame.HeaderSize+len("payload"))
	}
}

type countingWriter struct{ writes, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// roundTripDeltas is every shape the codec must carry unchanged: each delta
// type, nil vs empty header, an absent body, a maximal payload, a non-zero
// trace, and fields a constructor would never combine.
func roundTripDeltas() []Delta {
	traced := PayloadDelta(math.MaxUint64, []byte("traced"))
	traced.Trace = trace.ID(math.MaxUint64)
	return []Delta{
		PayloadDelta(3, []byte("comment")),
		PayloadDelta(0, nil),
		traced,
		FlowStatusDelta(FlowRecovered, "proxy back"),
		FlowStatusDelta(FlowDegraded, ""),
		RewriteDelta(Header{HdrStickyBRASS: "brass-7", "": ""}, []byte{0, 1, 0xFF}),
		RewriteDelta(Header{HdrResumeSeq: "41", HdrCursor: "1.41", "rl-state": "bucket=3"}, nil),
		RewriteDelta(Header{}, nil),
		RewriteDelta(nil, []byte("body only")),
		TerminationDelta("load shed"),
		{},
		{Type: 200, Seq: 1, Payload: []byte("p"), Flow: 9, FlowDetail: "d", Header: Header{"k": "v"}, Body: []byte("b"), Reason: "r", Trace: 5},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	all := roundTripDeltas()
	batches := [][]Delta{nil, all}
	for i := range all {
		batches = append(batches, all[i:i+1])
	}
	batches = append(batches, []Delta{PayloadDelta(1, bytes.Repeat([]byte{0xAB}, frame.MaxPayload-64))})
	for _, in := range batches {
		got, err := DecodeBatch(encodeMsg(Batch{Deltas: in}))
		if err != nil {
			t.Fatalf("batch of %d: %v", len(in), err)
		}
		if len(got.Deltas) != len(in) {
			t.Fatalf("batch of %d decoded to %d deltas", len(in), len(got.Deltas))
		}
		for i := range in {
			if !reflect.DeepEqual(got.Deltas[i], in[i]) {
				t.Errorf("delta %d:\n got %+v\nwant %+v", i, got.Deltas[i], in[i])
			}
		}
	}
}

// TestEmptyBytesDecodeAsNil pins the one place the round trip is not the
// identity: an empty payload or body is not sent, so it reads back nil.
func TestEmptyBytesDecodeAsNil(t *testing.T) {
	got, err := DecodeBatch(encodeMsg(Batch{Deltas: []Delta{{Type: DeltaRewriteRequest, Payload: []byte{}, Body: []byte{}}}}))
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Deltas[0]; d.Payload != nil || d.Body != nil {
		t.Errorf("empty payload/body decoded as %#v / %#v, want nil", d.Payload, d.Body)
	}
	sub, err := DecodeSubscribe(encodeMsg(Subscribe{Body: []byte{}}))
	if err != nil || sub.Body != nil || sub.Header != nil {
		t.Errorf("subscribe with empty body decoded as %+v, %v", sub, err)
	}
}

func TestSubscribeCancelAckRoundTrip(t *testing.T) {
	subs := []Subscribe{
		{Header: Header{HdrApp: "lvc", HdrTopic: "/LVC/9", HdrUser: "77"}, Body: []byte{0x01, 0x02, 0xFF}},
		{Header: Header{}},
		{Body: []byte("body")},
		{},
	}
	for _, in := range subs {
		got, err := DecodeSubscribe(encodeMsg(in))
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Errorf("subscribe: got %+v, %v; want %+v", got, err, in)
		}
	}
	for _, in := range []Cancel{{}, {Reason: "scrolled away"}} {
		got, err := DecodeCancel(encodeMsg(in))
		if err != nil || got != in {
			t.Errorf("cancel: got %+v, %v; want %+v", got, err, in)
		}
	}
	for _, in := range []Ack{{}, {Seq: 9}, {Seq: math.MaxUint64}} {
		got, err := DecodeAck(encodeMsg(in))
		if err != nil || got != in {
			t.Errorf("ack: got %+v, %v; want %+v", got, err, in)
		}
	}
}

// TestDecodeAliasesFrameBuffer pins the aliasing rule: a decoded payload is
// a capacity-clipped window of the frame buffer, strings are copies.
func TestDecodeAliasesFrameBuffer(t *testing.T) {
	wire := encodeMsg(Batch{Deltas: []Delta{
		PayloadDelta(1, []byte("first")),
		FlowStatusDelta(FlowDegraded, "detail"),
		PayloadDelta(2, []byte("second")),
	}})
	got, err := DecodeBatch(wire)
	if err != nil {
		t.Fatal(err)
	}
	first := got.Deltas[0].Payload
	if i := bytes.Index(wire, []byte("first")); &wire[i] != &first[0] {
		t.Error("payload was copied, not aliased")
	}
	if cap(first) != len(first) {
		t.Errorf("aliased payload has cap %d > len %d: an append would overwrite the next field", cap(first), len(first))
	}
	_ = append(first, "XXXXXXXXXXXX"...)
	for i := range wire {
		wire[i] = 0
	}
	if got.Deltas[1].FlowDetail != "detail" {
		t.Error("string field aliases the frame buffer")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good := encodeMsg(Batch{Deltas: roundTripDeltas()})
	subscribe := func(b []byte) error { _, err := DecodeSubscribe(b); return err }
	cancel := func(b []byte) error { _, err := DecodeCancel(b); return err }
	ack := func(b []byte) error { _, err := DecodeAck(b); return err }
	batch := func(b []byte) error { _, err := DecodeBatch(b); return err }
	cases := []struct {
		name   string
		decode func([]byte) error
		in     []byte
	}{
		{"empty subscribe", subscribe, nil},
		{"empty cancel", cancel, nil},
		{"empty ack", ack, nil},
		{"empty batch", batch, nil},
		{"subscribe header count beyond input", subscribe, []byte{1, 100, 1, 'k', 1, 'v', 0}},
		{"subscribe header value truncated", subscribe, []byte{1, 1, 1, 'k', 5, 'v'}},
		{"subscribe body length past end", subscribe, []byte{0, 9, 'x'}},
		{"subscribe trailing byte", subscribe, []byte{0, 0, 0}},
		{"cancel reason length past end", cancel, []byte{4, 'a', 'b'}},
		{"cancel trailing byte", cancel, []byte{1, 'a', 'b'}},
		{"ack overlong varint", ack, bytes.Repeat([]byte{0x80}, 11)},
		{"ack trailing byte", ack, []byte{9, 9}},
		{"batch count of 2^64-1", batch, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}},
		{"batch count beyond input", batch, append([]byte{3}, make([]byte, 2*minDeltaSize)...)},
		{"batch header count beyond input", batch, []byte{1, byte(DeltaRewriteRequest), 0, 0, 0, 0, 1, 100, 1, 'k', 1, 'v', 0, 0, 0}},
		{"batch payload length past end", batch, []byte{1, byte(DeltaPayload), 7, 100, 'x', 0, 0, 0, 0, 0, 0}},
		{"batch truncated", batch, good[:len(good)-1]},
		{"batch trailing byte", batch, append(append([]byte(nil), good...), 0)},
	}
	for _, tc := range cases {
		if err := tc.decode(tc.in); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// checkHeaderKeys pins how a decoded header holds its keys: a well-known key
// IS the package constant (no copy per hop), any other key is a copy that
// does not alias the frame buffer in.
func checkHeaderKeys(t *testing.T, h Header, in []byte) {
	t.Helper()
	for k := range h {
		known := false
		for _, w := range wellKnownKeys {
			if k == w {
				known = true
				if unsafe.StringData(k) != unsafe.StringData(w) {
					t.Errorf("well-known key %q decoded as a copy, want the package constant", k)
				}
			}
		}
		if !known && len(k) > 0 && within(unsafe.Slice(unsafe.StringData(k), len(k)), in) {
			t.Errorf("key %q aliases the frame buffer", k)
		}
	}
}

func TestHeaderDecodeKeys(t *testing.T) {
	all := Header{"rl-state": "bucket=3", "": "empty key"}
	for _, k := range wellKnownKeys {
		all[k] = "v-" + k
	}
	wire := encodeMsg(Batch{Deltas: []Delta{PayloadDelta(1, []byte("p")), RewriteDelta(all, nil)}})
	got, err := DecodeBatch(wire)
	if err != nil || !reflect.DeepEqual(got.Deltas[1].Header, all) {
		t.Fatalf("decoded %+v, %v; want %+v", got.Deltas, err, all)
	}
	checkHeaderKeys(t, got.Deltas[1].Header, wire)
	wire = encodeMsg(Subscribe{Header: all})
	sub, err := DecodeSubscribe(wire)
	if err != nil || !reflect.DeepEqual(sub.Header, all) {
		t.Fatalf("decoded %+v, %v; want %+v", sub, err, all)
	}
	checkHeaderKeys(t, sub.Header, wire)
	for i := range wire {
		wire[i] = 0
	}
	if sub.Header["rl-state"] != "bucket=3" || sub.Header[HdrCursor] != "v-cursor" {
		t.Errorf("header strings alias the frame buffer: %+v", sub.Header)
	}
}

// A patch that repeats a key on the wire (no Go map can, a peer's encoder
// might) folds in wire order: the last value wins, at decode and therefore
// at every holder.
func TestRewriteDuplicateKeyLastWins(t *testing.T) {
	var b bytes.Buffer
	frame.PutUvarint(&b, 1) // one delta
	b.WriteByte(byte(DeltaRewriteRequest))
	b.Write([]byte{0, 0, 0, 0}) // seq, payload, flow, flow detail
	b.WriteByte(1)              // header present
	frame.PutUvarint(&b, 3)
	for _, kv := range [][2]string{{HdrResumeSeq, "1"}, {"k", "v"}, {HdrResumeSeq, "2"}} {
		frame.PutString(&b, kv[0])
		frame.PutString(&b, kv[1])
	}
	b.Write([]byte{0, 0, 0}) // body, reason, trace
	got, err := DecodeBatch(b.Bytes())
	want := Header{HdrResumeSeq: "2", "k": "v"}
	if err != nil || !reflect.DeepEqual(got.Deltas[0].Header, want) {
		t.Fatalf("decoded %+v, %v; want %+v", got.Deltas, err, want)
	}

	cli, ss, srv := newClientServer(t)
	st, err := cli.Subscribe(Subscribe{Header: Header{HdrApp: "m", HdrResumeSeq: "0"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	if err := ss.sess.Send(Frame{Type: FrameBatch, SID: st.SID(), Payload: b.Bytes()}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "patch applied", func() bool { return st.HeaderField("k") == "v" })
	if got, want := st.Request().Header, (Header{HdrApp: "m", HdrResumeSeq: "2", "k": "v"}); !reflect.DeepEqual(got, want) {
		t.Errorf("stored request = %+v, want %+v", got, want)
	}
}

func TestHeaderMerge(t *testing.T) {
	h := Header{HdrApp: "x", HdrCursor: "1.1"}
	if got := h.Merge(Header{HdrCursor: "1.2", "new": "k"}); !reflect.DeepEqual(got, Header{HdrApp: "x", HdrCursor: "1.2", "new": "k"}) {
		t.Errorf("merge = %+v", got)
	}
	if h["new"] != "k" {
		t.Error("merge must patch in place")
	}
	for _, empty := range []Header{nil, {}} { // an empty patch is a no-op
		if got := h.Merge(empty); len(got) != 3 {
			t.Errorf("empty patch changed the header: %+v", got)
		}
		if got := Header(nil).Merge(empty); got != nil {
			t.Errorf("empty patch onto nil = %#v, want nil", got)
		}
	}
	if got := Header(nil).Merge(Header{"k": "v"}); !reflect.DeepEqual(got, Header{"k": "v"}) {
		t.Errorf("merge onto nil = %+v", got)
	}
}

func TestHeaderClone(t *testing.T) {
	h := Header{HdrApp: "x"}
	c := h.Clone()
	c[HdrApp] = "y"
	if h[HdrApp] != "x" {
		t.Error("clone aliased original")
	}
	if Header(nil).Clone() != nil {
		t.Error("nil clone should be nil")
	}
}

func TestTypeStrings(t *testing.T) {
	if FrameSubscribe.String() != "subscribe" || FrameType(99).String() == "" {
		t.Error("FrameType.String broken")
	}
	if DeltaFlowStatus.String() != "flow_status" || DeltaType(99).String() == "" {
		t.Error("DeltaType.String broken")
	}
	if FlowDegraded.String() != "degraded" || FlowCode(99).String() == "" {
		t.Error("FlowCode.String broken")
	}
}

// Property: any frame with a valid type and bounded payload round-trips.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(typ uint8, sid uint64, payload []byte) bool {
		ft := FrameType(typ%6) + 1
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		in := Frame{Type: ft, SID: StreamID(sid), Payload: payload}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return out.Type == in.Type && out.SID == in.SID && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// canonical maps a delta to what the wire can carry: empty byte strings
// read back nil.
func canonical(d Delta) Delta {
	if len(d.Payload) == 0 {
		d.Payload = nil
	}
	if len(d.Body) == 0 {
		d.Body = nil
	}
	return d
}

// Property: decode(encode(x)) == x for arbitrary deltas in arbitrary
// batches, whatever combination of fields they carry.
func TestBatchRoundTripProperty(t *testing.T) {
	f := func(in []Delta) bool {
		got, err := DecodeBatch(encodeMsg(Batch{Deltas: in}))
		if err != nil || len(got.Deltas) != len(in) {
			return false
		}
		for i := range in {
			if !reflect.DeepEqual(got.Deltas[i], canonical(in[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
