package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
)

// The append/consume primitives every payload is built from (see DESIGN.md
// §7e and §12 for the layouts). Three shapes only: a base-128 varint, a
// varint-length-prefixed byte string, and a varint count followed by that
// many elements. Writers append to a pooled buffer; the Reader walks a
// received payload front to back and ALIASES it — byte-string fields are
// sub-slices of the input, never copies.

var (
	errTruncated = errors.New("truncated or oversized field")
	errTrailing  = errors.New("trailing bytes")
)

// PutUvarint appends v as a base-128 varint.
//
//brlint:hotpath per-field encode into the pooled frame buffer.
func PutUvarint(b *bytes.Buffer, v uint64) {
	if v < 0x80 {
		b.WriteByte(byte(v))
		return
	}
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

// PutBytes appends p behind its varint length.
//
//brlint:hotpath per-field encode into the pooled frame buffer.
func PutBytes(b *bytes.Buffer, p []byte) {
	PutUvarint(b, uint64(len(p)))
	b.Write(p)
}

// PutString appends s behind its varint length.
//
//brlint:hotpath per-field encode into the pooled frame buffer.
func PutString(b *bytes.Buffer, s string) {
	PutUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

// PutStringMap appends m: a presence byte (0 = nil, so nil and empty stay
// distinct), then a pair count and the key/value strings.
//
//brlint:hotpath per-map encode into the pooled frame buffer.
func PutStringMap(b *bytes.Buffer, m map[string]string) {
	if m == nil {
		b.WriteByte(0)
		return
	}
	b.WriteByte(1)
	PutUvarint(b, uint64(len(m)))
	for k, v := range m {
		PutString(b, k)
		PutString(b, v)
	}
}

// Reader consumes one payload, B. The first malformed field records an
// error and drops the rest of the input, so every later read yields a zero
// value: a decoder reads a whole message unconditionally and checks Done
// once.
type Reader struct {
	B []byte
	// Own, when set, is what B started as, as a string — one copy, so a
	// message that outlives its frame is copied once, or B itself, for a
	// reader whose strings may alias it: Str returns slices of it.
	Own string
	err error
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
	r.B = nil
}

// Byte reads one byte.
//
//brlint:hotpath per-field decode.
func (r *Reader) Byte() byte {
	if len(r.B) == 0 {
		r.fail()
		return 0
	}
	c := r.B[0]
	r.B = r.B[1:]
	return c
}

// Uvarint reads a base-128 varint.
//
//brlint:hotpath per-field decode.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.B)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.B = r.B[n:]
	return v
}

// Bytes returns the next byte string as a capacity-clipped alias of the
// input (an append by the holder reallocates instead of overwriting the
// neighbouring field). A zero-length string reads as nil: empty and absent
// are the same on the wire.
//
//brlint:hotpath per-field decode; aliases, never copies.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.B)) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	p := r.B[:n:n]
	r.B = r.B[n:]
	return p
}

// Str returns the next byte string as a copy, or a slice of Own: strings
// outlive the frame buffer in stored requests and events, so only a reader
// whose Own is B itself returns strings that pin it.
func (r *Reader) Str() string { return r.StrOf(r.Bytes()) }

// StrOf is Str for p, the byte string Bytes has just returned.
func (r *Reader) StrOf(p []byte) string {
	if r.Own == "" {
		return string(p)
	}
	end := len(r.Own) - len(r.B)
	return r.Own[end-len(p) : end]
}

// Count reads an element count and checks it against the input that is
// left, each element occupying at least minSize bytes — the bound that
// keeps a decoder's make() proportional to the bytes actually received.
//
//brlint:hotpath per-field decode.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.B)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// Done reports the first decode failure, or leftover input.
func (r *Reader) Done() error {
	if r.err == nil && len(r.B) != 0 {
		return errTrailing
	}
	return r.err
}
