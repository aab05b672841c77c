package burst

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"bladerunner/internal/frame/frametest"
)

// TestReadFrameToleratesPartialReads feeds encoded frames through a
// 1–7-byte chunker into ReadFrame, proving the decoder reassembles torn
// headers and payloads.
func TestReadFrameToleratesPartialReads(t *testing.T) {
	var buf bytes.Buffer
	want := []Frame{
		{Type: FramePing},
		{Type: FrameSubscribe, SID: 1, Payload: encodeMsg(Subscribe{Header: Header{HdrTopic: "/t/1"}})},
		{Type: FrameBatch, SID: 7, Payload: []byte(strings.Repeat("x", 1000))},
		{Type: FramePong},
		{Type: FrameAck, SID: 1 << 40, Payload: encodeMsg(Ack{Seq: 9})},
	}
	for _, f := range want {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&frametest.ChunkReader{R: &buf})
	for i, w := range want {
		f, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != w.Type || f.SID != w.SID || !bytes.Equal(f.Payload, w.Payload) {
			t.Fatalf("frame %d = %+v, want %+v", i, f, w)
		}
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("after all frames: err = %v, want io.EOF", err)
	}
}

// roundTrip runs a session round-trip over the given transport pair, with
// the receiving side reading through the 1–7-byte chunker.
func roundTrip(t *testing.T, a, b io.ReadWriteCloser) {
	t.Helper()
	col := &frameCollector{}
	sa := NewSession("a", a, HandlerFuncs{})
	sb := NewSession("b", frametest.NewChunkConn(b), col)
	defer sa.Close()
	defer sb.Close()

	const n = 50
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf(`{"seq":%d,"pad":%q}`, i, strings.Repeat("p", i*13%301)))
		if err := sa.Send(Frame{Type: FrameBatch, SID: StreamID(i), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all frames through chunked reader", func() bool { return col.count() == n })
	col.mu.Lock()
	defer col.mu.Unlock()
	for i, f := range col.frames {
		if f.SID != StreamID(i) {
			t.Fatalf("frame %d has sid %d: reordered or corrupted", i, f.SID)
		}
		want := fmt.Sprintf(`{"seq":%d,"pad":%q}`, i, strings.Repeat("p", i*13%301))
		if string(f.Payload) != want {
			t.Fatalf("frame %d payload corrupted:\n got %q\nwant %q", i, f.Payload, want)
		}
	}
}

func TestSessionRoundTripChunkedPipe(t *testing.T) {
	a, b := net.Pipe()
	roundTrip(t, a, b)
}

func TestSessionRoundTripChunkedTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	roundTrip(t, a, b)
}
