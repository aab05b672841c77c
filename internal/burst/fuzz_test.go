package burst

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"bladerunner/internal/frame"
)

// The fuzz targets share three properties, checked on every input the
// decoder accepts (rejecting is always fine; panicking never is):
//
//   - bounded: what a decoder builds is proportional to the bytes it was
//     given — element counts are validated against the input that is left
//     before anything is made;
//   - aliased: byte-string fields are windows of the input, not copies;
//   - stable: decode(encode(x)) == x for the x that was decoded.
//
// Seeds live in testdata/fuzz/<target>/ (every frame and delta type, nil
// and empty headers, multi-delta batches, traced deltas, and the malformed
// shapes of TestDecodeRejectsMalformed); CI runs each target for a few
// seconds on top of them.

// within reports whether p is a window of buf (or empty).
func within(p, buf []byte) bool {
	if len(p) == 0 {
		return true
	}
	if len(buf) == 0 {
		return false
	}
	lo, hi := uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&buf[0]))+uintptr(len(buf))
	at := uintptr(unsafe.Pointer(&p[0]))
	return at >= lo && at+uintptr(len(p)) <= hi
}

func checkBatch(t *testing.T, in []byte) {
	batch, err := DecodeBatch(in)
	// The leased decode a client stream does is the same decode: the same
	// verdict and the same deltas — the second time too, into the slots and
	// maps a Release has recycled.
	for i := 0; i < 2; i++ {
		rc := lease(in)
		deltas, lerr := decodeBatch(rc.buf.Bytes(), rc)
		if (lerr == nil) != (err == nil) || !reflect.DeepEqual(deltas, batch.Deltas) {
			t.Fatalf("leased decode %d = %+v, %v; DecodeBatch = %+v, %v", i, deltas, lerr, batch.Deltas, err)
		}
		// A lease lends a patch's keys and values: each is a window of it.
		for _, d := range deltas {
			for k, v := range d.Header {
				for _, s := range [...]string{k, v} {
					if b := unsafe.Slice(unsafe.StringData(s), len(s)); !slices.Contains(wellKnownKeys[:], s) && !within(b, rc.buf.Bytes()) {
						t.Fatalf("leased decode %d: patch string %q is not a window of the lease", i, s)
					}
				}
			}
		}
		rc.Deltas = rc.slots[:0]
		rc.Release()
	}
	if err != nil {
		return
	}
	if len(batch.Deltas) > len(in)/minDeltaSize {
		t.Fatalf("%d deltas from %d bytes", len(batch.Deltas), len(in))
	}
	pairs := 0
	for _, d := range batch.Deltas {
		pairs += len(d.Header)
		checkHeaderKeys(t, d.Header, in)
		if !within(d.Payload, in) || !within(d.Body, in) {
			t.Fatal("payload/body does not alias the input")
		}
	}
	if pairs > len(in)/2 {
		t.Fatalf("%d header pairs from %d bytes", pairs, len(in))
	}
	// A header is one copy of its own bytes (DESIGN.md §7e rule 1a): with
	// the frame poisoned after decode, every key and value reads the same.
	frame := bytes.Clone(in)
	kept, _ := DecodeBatch(frame)
	for i := range frame {
		frame[i] = 0xDB
	}
	for i, d := range kept.Deltas {
		if !reflect.DeepEqual(d.Header, batch.Deltas[i].Header) {
			t.Fatalf("delta %d's header reads %q once its frame is poisoned, want %q", i, d.Header, batch.Deltas[i].Header)
		}
	}
	again, err := DecodeBatch(encodeMsg(batch))
	if err != nil || !reflect.DeepEqual(again, batch) {
		t.Fatalf("re-encoded batch decodes to %+v, %v; want %+v", again, err, batch)
	}
}

func FuzzDecodeBatch(f *testing.F) {
	f.Add(encodeMsg(Batch{Deltas: roundTripDeltas()}))
	f.Fuzz(checkBatch)
}

// decodeSubscribe parses a Subscribe payload as a server stream does, its
// pairs as a map: the header's strings are slices of ONE copy of the header's
// bytes, and the body is a copy too.
func decodeSubscribe(b []byte) (Subscribe, error) {
	st := subscribed(b)
	if st == nil {
		return Subscribe{}, errors.New("undecodable subscribe")
	}
	return st.req.subscribe(), nil
}

// subscribed is the stream a server session opens for the subscribe payload
// b, or nil if it opens none.
func subscribed(b []byte) *ServerStream {
	s := &ServerSession{handler: ServerHandlerFuncs{}, streams: map[StreamID]*ServerStream{}}
	serverDispatch{s}.HandleFrame(Frame{Type: FrameSubscribe, SID: 1, Payload: b})
	return s.streams[1]
}

// headerOf returns a subscribe whose header's pairs encode in n bytes: one
// unknown key and a value that pads it out (n in 4..130).
func headerOf(n int) Subscribe {
	return Subscribe{Header: Header{"k": strings.Repeat("v", n-3)}}
}

func FuzzDecodeSubscribe(f *testing.F) {
	f.Add(encodeMsg(Subscribe{Header: Header{HdrApp: "lvc", HdrCursor: "1.5"}, Body: []byte("body")}))
	for _, n := range []int{headerRoom - 1, headerRoom, headerRoom + 1} {
		f.Add(encodeMsg(headerOf(n)))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		st := subscribed(in)
		if st == nil {
			return
		}
		sub := st.req.subscribe()
		checkHeaderKeys(t, sub.Header, in)
		if len(sub.Header) > len(in)/2 || within(st.req.body, in) && len(st.req.body) > 0 {
			t.Fatalf("%d header pairs from %d bytes, body aliased=%v", len(sub.Header), len(in), within(st.req.body, in))
		}
		// The pairs' encoded span is copied into the stream's room when it
		// fits and into a string of its own when it does not: never the input.
		span := 0
		for _, p := range st.req.pairs {
			span += len(p.key) + len(p.val) + uvarintLen(len(p.key)) + uvarintLen(len(p.val))
		}
		for _, p := range st.req.pairs {
			for _, s := range [...]string{p.key, p.val} {
				b := unsafe.Slice(unsafe.StringData(s), len(s))
				if len(s) > 0 && !slices.Contains(wellKnownKeys[:], s) && (within(b, in) || within(b, st.hdr[:]) != (span <= headerRoom)) {
					t.Fatalf("%q of a %d-byte header: in the input %v, in the stream's %d-byte room %v",
						s, span, within(b, in), headerRoom, within(b, st.hdr[:]))
				}
			}
		}
		again, err := decodeSubscribe(encodeMsg(sub))
		if err != nil || !reflect.DeepEqual(again, sub) {
			t.Fatalf("re-encoded subscribe decodes to %+v, %v; want %+v", again, err, sub)
		}
	})
}

func uvarintLen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

func FuzzDecodeCancel(f *testing.F) {
	f.Add(encodeMsg(Cancel{Reason: "scrolled away"}))
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := DecodeCancel(in)
		if err != nil {
			return
		}
		if again, err := DecodeCancel(encodeMsg(c)); err != nil || again != c {
			t.Fatalf("re-encoded cancel decodes to %+v, %v; want %+v", again, err, c)
		}
	})
}

// FuzzReadFrame feeds a byte stream to ReadFrame until it errors. Every
// frame it returns must re-encode to exactly the bytes it was read from
// (so its payload is no longer than the input — ReadFrame's own allocation
// bound is frame.MaxPayload, checked against the length field before the make),
// and a batch frame's payload goes through the batch checks.
func FuzzReadFrame(f *testing.F) {
	var stream bytes.Buffer
	for _, fr := range []Frame{
		{Type: FrameCancel},
		{Type: FrameSubscribe, SID: 1, Payload: encodeMsg(Subscribe{Header: Header{HdrTopic: "/t"}})},
		{Type: FrameBatch, SID: 1 << 40, Payload: encodeMsg(Batch{Deltas: roundTripDeltas()})},
	} {
		if err := WriteFrame(&stream, fr); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		br := bufio.NewReader(bytes.NewReader(in))
		rest := in
		for {
			fr, err := ReadFrame(br)
			if err != nil {
				return
			}
			var wire bytes.Buffer
			if err := WriteFrame(&wire, fr); err != nil {
				t.Fatalf("frame read but not writable: %v", err)
			}
			if !bytes.HasPrefix(rest, wire.Bytes()) {
				t.Fatalf("frame %+v is not what was on the wire", fr)
			}
			rest = rest[wire.Len():]
			if fr.Type == FrameBatch {
				checkBatch(t, fr.Payload)
			}
		}
	})
}

// storedKeys are the keys FuzzStoredRequest draws from: well-known ones,
// others, and the empty key.
var storedKeys = [...]string{HdrApp, HdrUser, HdrSubscription, HdrStickyBRASS, HdrTraceStream,
	HdrCursor, "admission-state", "rl-state", "", "k9", "k10", "k11"}

// FuzzStoredRequest checks the request a server stream stores against a map
// reference built with Header.Merge. The input's first byte is the header's
// pair count (255: no header), then one byte a pair picks its key, so keys
// repeat and a header can outgrow storedRoom; the last pair's byte, if its
// high bit is set, adds a body. The rest is a script of rewrites: one byte gives a patch's key
// count (low two bits) and whether it replaces the body (high bit), one byte
// a key follows. Each patch is lent from a buffer that reads 0xDB once the
// merge returns. After the open and after every rewrite, the stored pairs,
// HeaderField, LookupHeader, Request() and the pairs' own encoding decoded
// again must all agree with the reference, and every string an accessor has
// handed out so far must still read what it read then: the request copies
// what it keeps into a room it only appends to.
func FuzzStoredRequest(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 1, 3})
	f.Add([]byte{9, 0, 1, 2, 0, 4, 5, 6, 7, 8, 0x82, 3, 4, 0x80})
	f.Add([]byte{255, 2, 5, 9})
	// Enough rewrites of trace-stream, cursor and an unknown key to outgrow the
	// rest of the stream's header array and then a room or two of its own,
	// behind a short header and behind one that fills no room at all.
	f.Add(append([]byte{2, 0, 1}, bytes.Repeat([]byte{3, 4, 5, 9, 2, 4, 5}, 40)...))
	f.Add(append(append([]byte{30}, bytes.Repeat([]byte{7, 2, 10}, 10)...), bytes.Repeat([]byte{3, 11, 4, 5, 1, 6}, 50)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		n, in := int(in[0]), in[1:]
		var wire bytes.Buffer
		var ref Header
		if n == 255 {
			wire.WriteByte(0)
			n = 0
		} else {
			n = min(n, len(in))
			ref = Header{}
			wire.WriteByte(1)
			frame.PutUvarint(&wire, uint64(n))
			for i, b := range in[:n] {
				k, v := storedKeys[int(b)%len(storedKeys)], "w"+strconv.Itoa(i)
				frame.PutString(&wire, k)
				frame.PutString(&wire, v)
				ref = ref.Merge(Header{k: v})
			}
		}
		wireKeys := maps.Clone(ref) // the keys the subscribe carried
		var refBody []byte
		if n > 0 && in[n-1]&0x80 != 0 {
			refBody = []byte("body")
		}
		frame.PutBytes(&wire, refBody)
		st := subscribed(wire.Bytes())
		if st == nil {
			t.Fatal("a well-formed subscribe opened no stream")
		}
		// Every string an accessor handed out, by where its bytes are, and what
		// it read then.
		type handout struct {
			at *byte
			n  int
		}
		handed := map[handout]string{}
		hand := func(s, want string) { handed[handout{unsafe.StringData(s), len(s)}] = want }
		// The most pairs the stream has held; one opened without a header has
		// no inline room to patch into.
		most := len(st.req.pairs)
		if ref == nil {
			most = storedRoom + 1
		}
		check := func(step int) {
			t.Helper()
			for h, want := range handed {
				if got := unsafe.String(h.at, h.n); got != want {
					t.Fatalf("step %d: a string handed out as %q now reads %q: the request rewrote bytes it had handed out", step, want, got)
				}
			}
			q := &st.req
			if most = max(most, len(q.pairs)); most <= storedRoom && len(q.pairs) > 0 && &q.pairs[0] != &st.inline[0] {
				t.Fatalf("step %d: %d pairs left the stream's inline room", step, len(q.pairs))
			}
			if (q.pairs == nil) != (ref == nil) {
				t.Fatalf("step %d: stored pairs %v, reference %v: a nil header is not an empty one", step, q.pairs, ref)
			}
			added := 0 // a patch sets a key in its place: only a key new to the request adds a pair
			for k := range ref {
				if _, ok := wireKeys[k]; !ok {
					added++
				}
			}
			if len(q.pairs) != n+added {
				t.Fatalf("step %d: %d stored pairs %v, want the subscribe's %d and %d added", step, len(q.pairs), q.pairs, n, added)
			}
			for _, k := range storedKeys {
				want, present := ref[k]
				got, ok := st.LookupHeader(k)
				field := st.HeaderField(k)
				if got != want || ok != present || field != want {
					t.Fatalf("step %d: key %q reads %q (present %v), reference %q (%v)", step, k, got, ok, want, present)
				}
				hand(got, want)
				hand(field, want)
			}
			got := st.Request()
			if !reflect.DeepEqual(got, Subscribe{Header: ref, Body: refBody}) {
				t.Fatalf("step %d: Request() = %+v, reference %v %q", step, got, ref, refBody)
			}
			for k, v := range got.Header {
				hand(k, strings.Clone(k))
				hand(v, ref[k])
			}
			var b bytes.Buffer
			q.put(&b)
			r := frame.Reader{B: b.Bytes()}
			pairs, _ := readPairs(&r, nil, nil)
			again := request{pairs: pairs, body: r.Bytes()}
			if err := r.Done(); err != nil || !reflect.DeepEqual(again.pairs, q.pairs) || !bytes.Equal(again.body, q.body) {
				t.Fatalf("step %d: stored pairs %v re-encode to %v, %v", step, q.pairs, again.pairs, err)
			}
		}
		check(0)
		var lent []byte // the bytes each patch is lent from, as a lease lends it
		lend := func(s string) string {
			at := len(lent)
			lent = append(lent, s...)
			return borrow(lent[at:])
		}
		for step, script := 1, in[n:]; len(script) > 0; step++ {
			op := script[0]
			keys := script[1:min(1+int(op&3), len(script))]
			script = script[1+len(keys):]
			patch, owned := Header{}, Header{}
			lent = make([]byte, 0, 256) // room for three keys and values: lend never reallocates
			for j, b := range keys {
				k, v := storedKeys[int(b)%len(storedKeys)], "p"+strconv.Itoa(step)+"."+strconv.Itoa(j)
				patch[lend(k)], owned[k] = lend(v), v
			}
			var body []byte
			if op&0x80 != 0 {
				body = []byte{op}
				refBody = bytes.Clone(body)
			}
			ref = ref.Merge(owned)
			st.mu.Lock()
			st.applyRewritesLocked(RewriteDelta(patch, body))
			st.mu.Unlock()
			for i := range lent[:cap(lent)] {
				lent[:cap(lent)][i] = 0xDB
			}
			for i := range body {
				body[i] = 0xDB
			}
			check(step)
		}
	})
}
