package burst

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// pipePair builds a connected client/server byte transport.
func pipePair() (net.Conn, net.Conn) { return net.Pipe() }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

type frameCollector struct {
	mu     sync.Mutex
	frames []Frame
	closed bool
	err    error
}

func (c *frameCollector) HandleFrame(f Frame) {
	f.Payload = bytes.Clone(f.Payload) // borrowed for this call only; the collector keeps it
	c.mu.Lock()
	c.frames = append(c.frames, f)
	c.mu.Unlock()
}

func (c *frameCollector) HandleClose(err error) {
	c.mu.Lock()
	c.closed = true
	c.err = err
	c.mu.Unlock()
}

func (c *frameCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *frameCollector) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func TestSessionSendReceive(t *testing.T) {
	a, b := pipePair()
	colA, colB := &frameCollector{}, &frameCollector{}
	sa := NewSession("a", a, colA)
	sb := NewSession("b", b, colB)
	defer sa.Close()
	defer sb.Close()

	if err := sa.SendMsg(FrameSubscribe, 1, Subscribe{Header: Header{HdrApp: "x"}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frame at b", func() bool { return colB.count() == 1 })
	colB.mu.Lock()
	f := colB.frames[0]
	colB.mu.Unlock()
	if f.Type != FrameSubscribe || f.SID != 1 {
		t.Errorf("frame = %+v", f)
	}
	sub, err := decodeSubscribe(f.Payload)
	if err != nil || sub.Header[HdrApp] != "x" {
		t.Errorf("payload = %+v err=%v", sub, err)
	}
}

func TestSessionOrderPreserved(t *testing.T) {
	a, b := pipePair()
	col := &frameCollector{}
	sa := NewSession("a", a, HandlerFuncs{})
	sb := NewSession("b", b, col)
	defer sa.Close()
	defer sb.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if err := sa.SendMsg(FrameCancel, StreamID(i), Cancel{}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all frames", func() bool { return col.count() == n })
	col.mu.Lock()
	defer col.mu.Unlock()
	for i, f := range col.frames {
		if f.SID != StreamID(i) {
			t.Fatalf("frame %d has sid %d: reordered", i, f.SID)
		}
	}
}

func TestSessionCloseNotifiesPeer(t *testing.T) {
	a, b := pipePair()
	colB := &frameCollector{}
	sa := NewSession("a", a, HandlerFuncs{})
	sb := NewSession("b", b, colB)
	defer sb.Close()
	sa.Close()
	waitFor(t, "peer close", func() bool { return colB.isClosed() })
	if err := sb.SendMsg(FrameCancel, 0, Cancel{}); err == nil {
		// The pipe is dead; a send must eventually error. net.Pipe errors
		// immediately on closed peer.
		t.Error("send on dead session succeeded")
	}
}

func TestSessionSendAfterCloseFails(t *testing.T) {
	a, b := pipePair()
	sa := NewSession("a", a, HandlerFuncs{})
	NewSession("b", b, HandlerFuncs{})
	sa.Close()
	<-sa.Done()
	if err := sa.SendMsg(FrameCancel, 0, Cancel{}); err == nil {
		t.Error("send after close succeeded")
	}
}

// TestSessionClosesOnReservedFrameType: types 5 and 6, once ping and pong,
// are reserved like 3 but above the reader's highest type, so a peer that
// sends one is broken and the session closes with the framing error, as it
// does on any type no BURST peer sends.
func TestSessionClosesOnReservedFrameType(t *testing.T) {
	for _, typ := range []byte{5, 6, 7} {
		a, b := pipePair()
		closed := make(chan error, 1)
		sa := NewSession("a", a, HandlerFuncs{
			OnFrame: func(f Frame) { t.Errorf("type %d: frame %v reached the handler", typ, f.Type) },
			OnClose: func(err error) { closed <- err },
		})
		go func() { _, _ = b.Write(append([]byte{typ}, make([]byte, 12)...)) }()
		select {
		case err := <-closed:
			if err == nil || errors.Is(err, io.EOF) {
				t.Errorf("type %d: session closed with %v, want a framing error", typ, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("type %d: the session kept reading", typ)
		}
		<-sa.Done()
		_ = b.Close()
	}
}

func TestSessionConcurrentSenders(t *testing.T) {
	a, b := pipePair()
	col := &frameCollector{}
	sa := NewSession("a", a, HandlerFuncs{})
	sb := NewSession("b", b, col)
	defer sa.Close()
	defer sb.Close()
	var wg sync.WaitGroup
	const goroutines, per = 8, 50
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = sa.SendMsg(FrameCancel, StreamID(g), Cancel{Reason: "scrolled away"})
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, "all frames", func() bool { return col.count() == goroutines*per })
	// Frames must decode cleanly (no interleaved corruption).
	col.mu.Lock()
	defer col.mu.Unlock()
	for _, f := range col.frames {
		if c, err := DecodeCancel(f.Payload); err != nil || c.Reason != "scrolled away" {
			t.Fatalf("corrupted frame: %+v, %v", c, err)
		}
	}
}
