// Package frame is the one length-prefixed binary frame layer of the
// system. BURST (device streams, internal/burst) and the tier control
// protocol (internal/ctrl) both put their messages in these frames and
// build their payloads from these primitives; they differ in what a kind
// and an id mean and in queue policy (streams shed, control never does),
// not in bytes on the wire.
//
// Wire format of a frame:
//
//	1 byte  kind (1..maxKind; the importing protocol names them)
//	8 bytes id (big endian: a BURST stream id, a ctrl call id)
//	4 bytes payload length (big endian)
//	N bytes payload (binary, per protocol and kind; DESIGN.md §7e, §12)
package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// MaxPayload bounds a single frame's payload; a sender with more must
// split it. The bound protects receivers and intermediaries from unbounded
// allocation on malformed input.
const MaxPayload = 4 << 20

// HeaderSize is the encoded size of kind, id and length.
const HeaderSize = 1 + 8 + 4

// A frame — header and payload — is built in one pooled buffer and written
// to the wire before the buffer is released, so a send path allocates
// nothing per frame. A receiver reads a payload it owns (Read) or borrows one
// in place in the reader's buffer (PeekPayload); what is decoded from either
// aliases it and lives as long as it does (DESIGN.md §7e).

// maxPooledBuf caps the size of buffers returned to the pool; encoding a
// rare jumbo frame must not pin megabytes in the pool forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// GetBuf checks an empty encode buffer out of the pool.
//
//brlint:hotpath pooled buffer checkout on the per-frame encode path.
func GetBuf() *bytes.Buffer {
	return bufPool.Get().(*bytes.Buffer)
}

// PutBuf returns b to the pool; nothing may alias its bytes afterwards.
//
//brlint:hotpath pooled buffer return on the per-frame encode path.
func PutBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// Begin starts a frame in b: the header with its length left zero. The
// payload is appended behind it and End patches the length in, so a whole
// frame is one contiguous buffer and one write.
//
//brlint:hotpath per-frame header encode into the pooled frame buffer.
func Begin(b *bytes.Buffer, kind byte, id uint64) {
	var hdr [HeaderSize]byte
	hdr[0] = kind
	binary.BigEndian.PutUint64(hdr[1:9], id)
	b.Write(hdr[:])
}

// End completes the frame begun in b and returns its wire bytes.
//
//brlint:hotpath per-frame length patch.
func End(b *bytes.Buffer) ([]byte, error) { return EndAt(b, 0) }

// EndAt completes the frame begun at offset start of b, behind the frames
// already there, and returns its wire bytes.
//
//brlint:hotpath per-frame length patch.
func EndAt(b *bytes.Buffer, start int) ([]byte, error) {
	wire := b.Bytes()[start:]
	n := len(wire) - HeaderSize
	if n > MaxPayload {
		return nil, fmt.Errorf("frame: payload %d exceeds max %d", n, MaxPayload)
	}
	binary.BigEndian.PutUint32(wire[9:13], uint32(n))
	return wire, nil
}

// ReadHeader decodes one frame header from br, accepting kinds 1..maxKind;
// the n payload bytes that follow are the caller's to read. The header is
// parsed in place in br's buffer. A clean end of input between frames is
// io.EOF; inside a header, io.ErrUnexpectedEOF.
func ReadHeader(br *bufio.Reader, maxKind byte) (kind byte, id uint64, n int, err error) {
	hdr, err := br.Peek(HeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF // torn header
		}
		return 0, 0, 0, err // io.EOF passes through for clean shutdown
	}
	kind, id = hdr[0], binary.BigEndian.Uint64(hdr[1:9])
	size := binary.BigEndian.Uint32(hdr[9:13])
	if size > MaxPayload {
		return 0, 0, 0, fmt.Errorf("frame: payload %d exceeds max %d", size, MaxPayload)
	}
	if kind < 1 || kind > maxKind {
		return 0, 0, 0, fmt.Errorf("frame: unknown kind %d", kind)
	}
	_, _ = br.Discard(HeaderSize) // cannot fail: Peek buffered these bytes
	return kind, id, int(size), nil
}

// ReadPayload fills p, the payload ReadHeader announced, from br.
func ReadPayload(br *bufio.Reader, p []byte) error {
	if _, err := io.ReadFull(br, p); err != nil {
		return tornPayload(err)
	}
	return nil
}

// tornPayload names a failed payload read. The header promised bytes: running
// out anywhere in them, the first too, is a torn frame, never a clean io.EOF.
func tornPayload(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("frame: read payload: %w", err)
}

// PeekPayload lends the n payload bytes ReadHeader announced, n at most
// br.Size(), in place: p is br's own buffer, valid until the caller's next
// call on br, which must be Discard(n).
//
//brlint:hotpath per-frame receive: the payload stays in the reader's buffer.
func PeekPayload(br *bufio.Reader, n int) (p []byte, err error) {
	if p, err = br.Peek(n); err != nil {
		return nil, tornPayload(err)
	}
	return p, nil
}

// Read decodes one frame from br. The payload is a fresh allocation owned
// by the caller: the read for anyone who keeps what they decode from it.
func Read(br *bufio.Reader, maxKind byte) (kind byte, id uint64, payload []byte, err error) {
	kind, id, n, err := ReadHeader(br, maxKind)
	if err == nil && n > 0 {
		payload = make([]byte, n)
		err = ReadPayload(br, payload)
	}
	return kind, id, payload, err
}
