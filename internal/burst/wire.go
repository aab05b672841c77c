package burst

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Wire format of a frame:
//
//	1 byte  frame type
//	8 bytes stream id (big endian)
//	4 bytes payload length (big endian)
//	N bytes payload (binary, per frame type; DESIGN.md §7e)
//
// MaxPayload bounds a single frame's payload; batches larger than this must
// be split by the sender. The bound protects intermediaries from unbounded
// allocation on malformed input.
const MaxPayload = 4 << 20

const frameHeaderSize = 1 + 8 + 4

// beginFrame starts a frame in b: the header with its length left zero. The
// payload is appended behind it and endFrame patches the length in, so a
// whole frame is one contiguous buffer and one write.
//
//brlint:hotpath per-frame header encode into the pooled frame buffer.
func beginFrame(b *bytes.Buffer, t FrameType, sid StreamID) {
	var hdr [frameHeaderSize]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint64(hdr[1:9], uint64(sid))
	b.Write(hdr[:])
}

// endFrame completes the frame begun in b and returns its wire bytes.
//
//brlint:hotpath per-frame length patch.
func endFrame(b *bytes.Buffer) ([]byte, error) {
	wire := b.Bytes()
	n := len(wire) - frameHeaderSize
	if n > MaxPayload {
		return nil, fmt.Errorf("burst: frame payload %d exceeds max %d", n, MaxPayload)
	}
	binary.BigEndian.PutUint32(wire[9:13], uint32(n))
	return wire, nil
}

// WriteFrame encodes f to w in a single write.
func WriteFrame(w io.Writer, f Frame) error {
	buf := getEncBuf()
	defer putEncBuf(buf)
	beginFrame(buf, f.Type, f.SID)
	buf.Write(f.Payload)
	wire, err := endFrame(buf)
	if err != nil {
		return err
	}
	if _, err := w.Write(wire); err != nil {
		return fmt.Errorf("burst: write frame: %w", err)
	}
	return nil
}

// ReadFrame decodes one frame from br. The header is parsed in place in
// br's buffer; the payload is a fresh allocation owned by the returned
// frame (the Decode functions alias it, so it is never recycled).
func ReadFrame(br *bufio.Reader) (Frame, error) {
	hdr, err := br.Peek(frameHeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF // torn header
		}
		return Frame{}, err // io.EOF passes through for clean shutdown
	}
	f := Frame{
		Type: FrameType(hdr[0]),
		SID:  StreamID(binary.BigEndian.Uint64(hdr[1:9])),
	}
	n := binary.BigEndian.Uint32(hdr[9:13])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("burst: frame payload %d exceeds max %d", n, MaxPayload)
	}
	if f.Type < FrameSubscribe || f.Type > FramePong {
		return Frame{}, fmt.Errorf("burst: unknown frame type %d", hdr[0])
	}
	_, _ = br.Discard(frameHeaderSize) // cannot fail: Peek buffered these bytes
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(br, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("burst: read frame payload: %w", err)
		}
	}
	return f, nil
}

// frameReader wraps a connection with buffering for ReadFrame.
func frameReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, 32<<10) }
