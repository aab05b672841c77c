package burst

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
	"unsafe"
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

func FuzzDecodeSubscribe(f *testing.F) {
	f.Add(encodeMsg(Subscribe{Header: Header{HdrApp: "lvc", HdrCursor: "1.5"}, Body: []byte("body")}))
	f.Fuzz(func(t *testing.T, in []byte) {
		sub, err := DecodeSubscribe(in)
		if err != nil {
			return
		}
		checkHeaderKeys(t, sub.Header, in)
		if len(sub.Header) > len(in)/2 || !within(sub.Body, in) {
			t.Fatalf("%d header pairs from %d bytes, body aliased=%v", len(sub.Header), len(in), within(sub.Body, in))
		}
		again, err := DecodeSubscribe(encodeMsg(sub))
		if err != nil || !reflect.DeepEqual(again, sub) {
			t.Fatalf("re-encoded subscribe decodes to %+v, %v; want %+v", again, err, sub)
		}
	})
}

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

func FuzzDecodeAck(f *testing.F) {
	f.Add(encodeMsg(Ack{Seq: 1 << 40}))
	f.Fuzz(func(t *testing.T, in []byte) {
		a, err := DecodeAck(in)
		if err != nil {
			return
		}
		if again, err := DecodeAck(encodeMsg(a)); err != nil || again != a {
			t.Fatalf("re-encoded ack decodes to %+v, %v; want %+v", again, err, a)
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
		{Type: FramePing},
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
