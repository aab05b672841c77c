package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// The layer's two importers test it through their own messages
// (internal/burst: round trips, torn reads, fuzzing; internal/ctrl: golden
// bytes, malformed input); what is pinned here is what they share.

func TestFrameRoundTripAndBounds(t *testing.T) {
	b := GetBuf()
	defer PutBuf(b)
	Begin(b, 3, 1<<40)
	PutString(b, "payload")
	wire, err := End(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != HeaderSize+8 || wire[0] != 3 || binary.BigEndian.Uint32(wire[9:13]) != 8 {
		t.Fatalf("wire = % x", wire)
	}
	stream := func(p []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(p)) }
	kind, id, payload, err := Read(stream(wire), 3)
	if err != nil || kind != 3 || id != 1<<40 || string(payload) != "\x07payload" {
		t.Fatalf("Read = %d, %d, %q, %v", kind, id, payload, err)
	}
	if _, _, _, err := Read(stream(wire), 2); err == nil || !strings.Contains(err.Error(), "unknown kind 3") {
		t.Errorf("kind above maxKind: %v", err)
	}
	if _, _, _, err := Read(stream(nil), 3); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
	if _, _, _, err := Read(stream(wire[:5]), 3); err != io.ErrUnexpectedEOF {
		t.Errorf("torn header: %v, want io.ErrUnexpectedEOF", err)
	}
	big := append([]byte(nil), wire...)
	binary.BigEndian.PutUint32(big[9:13], MaxPayload+1)
	if _, _, _, err := Read(stream(big), 3); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized length: %v", err)
	}
	b.Reset()
	Begin(b, 1, 0)
	b.Write(make([]byte, MaxPayload+1))
	if _, err := End(b); err == nil {
		t.Error("End accepted a payload above MaxPayload")
	}
}

func TestReaderPrimitives(t *testing.T) {
	var b bytes.Buffer
	PutUvarint(&b, 300)
	PutBytes(&b, []byte("abc"))
	PutString(&b, "")
	in := b.Bytes()

	r := Reader{B: in}
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	abc := r.Bytes()
	if string(abc) != "abc" || cap(abc) != 3 || &abc[0] != &in[3] {
		t.Errorf("Bytes = %q cap %d: want a capacity-clipped alias of the input", abc, cap(abc))
	}
	if s := r.Str(); s != "" {
		t.Errorf("Str = %q", s)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}

	for n := 0; n < len(in); n++ { // every proper prefix is truncated
		r := Reader{B: in[:n]}
		r.Uvarint()
		r.Bytes()
		r.Str()
		if r.Done() != errTruncated {
			t.Errorf("prefix %d: Done = %v", n, r.Done())
		}
	}
	r = Reader{B: []byte{0, 0}}
	r.Byte()
	if r.Done() != errTrailing {
		t.Errorf("leftover input: Done = %v", r.Done())
	}
	// A count is checked against what is left before anything is made.
	r = Reader{B: []byte{0xff, 0x7f, 1, 2, 3}}
	if n := r.Count(1); n != 0 || r.Done() != errTruncated {
		t.Errorf("Count beyond the input = %d, %v", n, r.Done())
	}

	// A map is a presence byte (0 = nil), a pair count and the pairs.
	var m bytes.Buffer
	PutStringMap(&m, nil)
	PutStringMap(&m, map[string]string{})
	PutStringMap(&m, map[string]string{"k": "v"})
	if want := []byte{0, 1, 0, 1, 1, 1, 'k', 1, 'v'}; !bytes.Equal(m.Bytes(), want) {
		t.Errorf("maps encode to % x, want % x", m.Bytes(), want)
	}
}
