package burst

import (
	"bufio"

	"bladerunner/internal/frame"
)

// BURST rides the shared frame layer (internal/frame, the single owner of
// the 13-byte header): kind = FrameType, id = StreamID, payload per frame
// type (DESIGN.md §7e). A payload is at most frame.MaxPayload; a sender with
// a larger batch must split it.

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
