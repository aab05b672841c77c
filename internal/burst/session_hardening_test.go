package burst

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// errorConn blocks reads until an error is injected, and swallows writes.
type errorConn struct {
	errc   chan error
	closed chan struct{}
	once   sync.Once
}

func newErrorConn() *errorConn {
	return &errorConn{errc: make(chan error, 1), closed: make(chan struct{})}
}

func (c *errorConn) Read(p []byte) (int, error) {
	select {
	case err := <-c.errc:
		return 0, err
	case <-c.closed:
		return 0, io.ErrClosedPipe
	}
}

func (c *errorConn) Write(p []byte) (int, error) { return len(p), nil }

func (c *errorConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestHandleCloseCause pins down the documented HandleClose contract:
// nil for a locally initiated close, io.EOF for a clean peer close, and
// the transport error for an error close. Before the fix, peer closes
// were collapsed into nil, indistinguishable from local closes.
func TestHandleCloseCause(t *testing.T) {
	injected := errors.New("transport exploded")
	cases := []struct {
		name string
		run  func(t *testing.T) error // returns the err delivered to HandleClose
		want func(error) bool
		desc string
	}{
		{
			name: "local-close",
			run: func(t *testing.T) error {
				a, b := pipePair()
				closed := make(chan error, 1)
				sa := NewSession("a", a, HandlerFuncs{OnClose: func(err error) { closed <- err }})
				sb := NewSession("b", b, HandlerFuncs{})
				defer sb.Close()
				sa.Close()
				return <-closed
			},
			want: func(err error) bool { return err == nil },
			desc: "nil",
		},
		{
			name: "peer-close",
			run: func(t *testing.T) error {
				a, b := pipePair()
				closed := make(chan error, 1)
				NewSession("a", a, HandlerFuncs{OnClose: func(err error) { closed <- err }})
				sb := NewSession("b", b, HandlerFuncs{})
				sb.Close()
				return <-closed
			},
			want: func(err error) bool { return errors.Is(err, io.EOF) },
			desc: "io.EOF",
		},
		{
			name: "error-close",
			run: func(t *testing.T) error {
				c := newErrorConn()
				closed := make(chan error, 1)
				NewSession("a", c, HandlerFuncs{OnClose: func(err error) { closed <- err }})
				c.errc <- injected
				return <-closed
			},
			want: func(err error) bool { return errors.Is(err, injected) },
			desc: "the transport error",
		},
		{
			name: "torn-frame-close",
			run: func(t *testing.T) error {
				// A header cut mid-way is a torn frame, not a clean
				// hangup: it must NOT surface as io.EOF.
				c := newErrorConn()
				closed := make(chan error, 1)
				NewSession("a", c, HandlerFuncs{OnClose: func(err error) { closed <- err }})
				c.errc <- io.ErrUnexpectedEOF
				return <-closed
			},
			want: func(err error) bool {
				return errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF)
			},
			desc: "io.ErrUnexpectedEOF",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if !tc.want(err) {
				t.Fatalf("HandleClose got %v, want %s", err, tc.desc)
			}
		})
	}
}

// TestSessionErrReportsPeerClose checks Err() mirrors the HandleClose
// cause for peer closes.
func TestSessionErrReportsPeerClose(t *testing.T) {
	a, b := pipePair()
	closed := make(chan error, 1)
	sa := NewSession("a", a, HandlerFuncs{OnClose: func(err error) { closed <- err }})
	sb := NewSession("b", b, HandlerFuncs{})
	sb.Close()
	<-closed
	if err := sa.Err(); !errors.Is(err, io.EOF) {
		t.Fatalf("Err() = %v after peer close, want io.EOF", err)
	}
}

// recordingConn counts whole Write calls and can hold one write open until
// released, so a test can park a sender inside the write path.
type recordingConn struct {
	mu     sync.Mutex
	writes int
	gate   chan struct{} // first write blocks on this when set
	gated  bool
	closed chan struct{}
	once   sync.Once
}

func (c *recordingConn) Read(p []byte) (int, error) {
	<-c.closed
	return 0, io.ErrClosedPipe
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	gate := c.gate
	hold := c.gated
	c.gated = false // only the first write parks
	c.mu.Unlock()
	if hold {
		<-gate
	}
	return len(p), nil
}

func (c *recordingConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *recordingConn) writeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// TestSendOnConcurrentlyClosedSession is the regression test for the
// check-then-write race: sender B passes the closed check, waits on the
// write lock behind a slow sender A, and the session closes before B
// acquires it. B must get ErrSessionClosed and write nothing — before the
// fix its frame went onto the dead transport.
func TestSendOnConcurrentlyClosedSession(t *testing.T) {
	conn := &recordingConn{gate: make(chan struct{}), gated: true, closed: make(chan struct{})}
	s := NewSession("s", conn, HandlerFuncs{})

	aDone := make(chan error, 1)
	go func() { aDone <- s.SendMsg(FrameCancel, 0, Cancel{}) }()
	waitFor(t, "sender A inside Write", func() bool { return conn.writeCount() == 1 })

	bDone := make(chan error, 1)
	go func() { bDone <- s.SendMsg(FrameCancel, 1, Cancel{}) }()
	// Give B time to pass any pre-lock closed check and park on the write
	// lock held by A.
	time.Sleep(50 * time.Millisecond)

	s.Close()
	close(conn.gate) // release A

	if err := <-bDone; !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("B's SendMsg = %v, want ErrSessionClosed", err)
	}
	<-aDone
	if got := conn.writeCount(); got != 1 {
		t.Fatalf("transport saw %d writes, want 1 — a frame was written to a closed session", got)
	}
}

// TestSendAfterPeerVanishesReturnsSessionClosed: once the session is
// closed (here by the peer), later sends report ErrSessionClosed rather
// than a raw transport error.
func TestSendAfterPeerVanishesReturnsSessionClosed(t *testing.T) {
	a, b := pipePair()
	closed := make(chan error, 1)
	sa := NewSession("a", a, HandlerFuncs{OnClose: func(err error) { closed <- err }})
	_ = b.Close() // raw peer hangup, no session on the far side
	<-closed
	if err := sa.SendMsg(FrameCancel, 0, Cancel{}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("SendMsg = %v, want ErrSessionClosed", err)
	}
}
