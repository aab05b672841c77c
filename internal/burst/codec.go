package burst

import (
	"bytes"
	"encoding/binary"
	"errors"
)

// The append/consume primitives every BURST payload is built from (see
// DESIGN.md §7e for the layouts). Three shapes only: a base-128 varint, a
// varint-length-prefixed byte string, and a varint count followed by that
// many elements. Writers append to a pooled buffer; the reader walks a
// received payload front to back and ALIASES it — byte-string fields are
// sub-slices of the input, never copies.

var (
	errTruncated = errors.New("truncated or oversized field")
	errTrailing  = errors.New("trailing bytes")
)

//brlint:hotpath per-field encode into the pooled frame buffer.
func putUvarint(b *bytes.Buffer, v uint64) {
	if v < 0x80 {
		b.WriteByte(byte(v))
		return
	}
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

//brlint:hotpath per-field encode into the pooled frame buffer.
func putBytes(b *bytes.Buffer, p []byte) {
	putUvarint(b, uint64(len(p)))
	b.Write(p)
}

//brlint:hotpath per-field encode into the pooled frame buffer.
func putString(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

// reader consumes one payload. The first malformed field records err and
// drops the rest of the input, so every later read yields a zero value: a
// decoder reads a whole message unconditionally and checks done() once.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
	r.b = nil
}

//brlint:hotpath per-field decode.
func (r *reader) byte() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

//brlint:hotpath per-field decode.
func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes returns the next byte string as a capacity-clipped alias of the
// input (an append by the holder reallocates instead of overwriting the
// neighbouring field). A zero-length string reads as nil: empty and absent
// are the same on the wire.
//
//brlint:hotpath per-field decode; aliases, never copies.
func (r *reader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// str copies the next byte string out of the input: strings outlive the
// frame buffer in stored requests, so they must not pin it.
func (r *reader) str() string { return string(r.bytes()) }

// count reads an element count and checks it against the input that is
// left, each element occupying at least minSize bytes — the bound that
// keeps a decoder's make() proportional to the bytes actually received.
//
//brlint:hotpath per-field decode.
func (r *reader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// done reports the first decode failure, or leftover input.
func (r *reader) done() error {
	if r.err == nil && len(r.b) != 0 {
		return errTrailing
	}
	return r.err
}
