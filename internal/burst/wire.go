package burst

import (
	"bufio"
	"fmt"
	"io"

	"bladerunner/internal/frame"
)

// BURST rides the shared frame layer (internal/frame, the single owner of
// the 13-byte header): kind = FrameType, id = StreamID, payload per frame
// type (DESIGN.md §7e). A payload is at most frame.MaxPayload; a sender with
// a larger batch must split it.

// WriteFrame encodes f to w in a single write.
func WriteFrame(w io.Writer, f Frame) error {
	buf := frame.GetBuf()
	defer frame.PutBuf(buf)
	frame.Begin(buf, byte(f.Type), uint64(f.SID))
	buf.Write(f.Payload)
	wire, err := frame.End(buf)
	if err != nil {
		return err
	}
	if _, err := w.Write(wire); err != nil {
		return fmt.Errorf("burst: write frame: %w", err)
	}
	return nil
}

// ReadFrame decodes one frame from br. The payload is a fresh allocation
// owned by the returned frame: the read for a caller outside a Session, which
// lends its handler each payload in place instead (FrameHandler).
func ReadFrame(br *bufio.Reader) (Frame, error) {
	kind, id, payload, err := frame.Read(br, byte(FrameBatch))
	if err != nil {
		return Frame{}, err
	}
	return Frame{Type: FrameType(kind), SID: StreamID(id), Payload: payload}, nil
}
