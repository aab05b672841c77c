package ctrl

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"bladerunner/internal/frame"
)

// Seeds live in testdata/fuzz/<target>/ (a frame of every kind and one
// request per layout family, the malformed shapes of
// TestMalformedInputClosesTheConn, and for the event the cases
// TestEventRoundTrip names); CI runs each target for a few
// seconds on top of them.

// scriptedConn is a transport whose peer already said everything it will
// ever say: reads drain the script, writes are counted and dropped.
type scriptedConn struct {
	io.Reader
	wrote int
}

func (s *scriptedConn) Write(p []byte) (int, error) { s.wrote += len(p); return len(p), nil }
func (s *scriptedConn) Close() error                { return nil }

// FuzzCtrlFrame feeds raw bytes to a Conn that serves the node, the WAS
// and a Pylon client's deliver route (pylon.wait-subscriber, which blocks
// for as long as its caller says, is left out). Whatever arrives, the Conn
// must not panic, must end — closed by a protocol error it can name, or
// healthy at the peer's EOF — and must neither build nor answer more than
// the input justifies: an allowance per frame and per byte, plus the frame
// reader's own MaxPayload-capped buffer.
func FuzzCtrlFrame(f *testing.F) {
	f.Add(cat(
		rawFrame(kindRequest, 1, []byte{15}),
		rawFrame(kindRequest, 2, cat([]byte{12, 5}, goldenEventBytes)),
		rawFrame(kindNotify, 0, cat([]byte{7}, str("h1"), goldenEventBytes)),
		rawFrame(kindResponse, 9, str("nobody asked")),
		rawFrame(kindError, 9, cat([]byte{6}, str("denied"))),
	))
	srv := newWAS(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		transport := &scriptedConn{Reader: bytes.NewReader(in)}
		closed := make(chan error, 1)
		conn := NewConn("fuzz", transport, func(err error) { closed <- err })
		ServeNode(conn, "fuzz", nil)
		ServeWAS(conn, srv)
		NewPylonClient(conn).subs["h1"] = &collector{id: "h1"}
		conn.Start()
		err := <-closed // the script always ends, so the Conn always closes
		_ = conn.Close()
		runtime.ReadMemStats(&after)

		if err == nil {
			t.Fatal("closed without a reason")
		}
		protocol := strings.HasPrefix(err.Error(), "ctrl fuzz: ") || strings.HasPrefix(err.Error(), "frame: ")
		if !protocol && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("closed with %v: neither the peer's EOF nor a protocol error", err)
		}
		frames := len(in)/frame.HeaderSize + 1
		if grew := after.TotalAlloc - before.TotalAlloc; grew > frame.MaxPayload+1<<20+uint64(frames)<<14+uint64(len(in))<<6 {
			t.Fatalf("%d bytes of input (at most %d frames) made the process allocate %d bytes", len(in), frames, grew)
		}
		if transport.wrote > frames<<9+len(in)<<3 {
			t.Fatalf("%d bytes of input drew %d bytes of answers", len(in), transport.wrote)
		}
	})
}

// FuzzDecodeEvent: an event that decodes re-encodes to something that
// decodes to the same event.
func FuzzDecodeEvent(f *testing.F) {
	f.Add(goldenEventBytes)
	f.Fuzz(func(t *testing.T, in []byte) {
		ev, err := decodeEvent(in)
		if err != nil {
			return
		}
		again, err := decodeEvent(encodeEvent(ev))
		if err != nil || !sameEvent(again, ev) {
			t.Fatalf("re-encoded event decodes to %#v, %v; want %#v", again, err, ev)
		}
	})
}
