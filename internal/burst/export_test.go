package burst

import (
	"fmt"
	"io"

	"bladerunner/internal/frame"
)

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
