package ctrl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/frame"
	"bladerunner/internal/pylon"
	"bladerunner/internal/was"
)

// The generic behaviours of a Conn, exercised with test handlers hung on
// the node method numbers (a Conn does not care what a number means).
const (
	mTestA = mPing
	mTestB = mDrain
)

// pair returns two connected Conns over an in-memory pipe.
func pair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca := NewConn("a", a, nil).Start()
	cb := NewConn("b", b, nil).Start()
	t.Cleanup(func() {
		_ = ca.Close()
		_ = cb.Close()
	})
	return ca, cb
}

// intHandler serves fn over one uvarint in, one uvarint out.
func intHandler(fn func(uint64) (uint64, error)) handler {
	return func(r *frame.Reader, out *bytes.Buffer) error {
		v := r.Uvarint()
		if err := r.Done(); err != nil {
			return err
		}
		res, err := fn(v)
		frame.PutUvarint(out, res)
		return err
	}
}

func putInt(v uint64) func(*bytes.Buffer) {
	return func(b *bytes.Buffer) { frame.PutUvarint(b, v) }
}

func TestCallRoundTrip(t *testing.T) {
	ca, cb := pair(t)
	cb.handle(mTestA, func(r *frame.Reader, out *bytes.Buffer) error {
		in := r.Str()
		if err := r.Done(); err != nil {
			return err
		}
		frame.PutString(out, in+" seen")
		return nil
	})
	var out string
	err := ca.call(mTestA,
		func(b *bytes.Buffer) { frame.PutString(b, "k") },
		func(r *frame.Reader) { out = r.Str() })
	if err != nil {
		t.Fatal(err)
	}
	if out != "k seen" {
		t.Errorf("out = %q", out)
	}
}

func TestUnservedMethodErrorsAndKeepsTheConn(t *testing.T) {
	ca, cb := pair(t)
	if err := ca.call(mTestA, nil, nil); err == nil || !errors.Is(err, errUnknownMethod) {
		t.Fatalf("unserved method: err = %v, want unknown method", err)
	}
	cb.handle(mTestB, intHandler(func(v uint64) (uint64, error) { return v, nil }))
	if err := ca.call(mTestB, putInt(1), func(r *frame.Reader) { r.Uvarint() }); err != nil {
		t.Fatalf("call after an unknown-method answer: %v", err)
	}
}

func TestSentinelErrorsSurviveTheWire(t *testing.T) {
	ca, cb := pair(t)
	cases := []error{
		pylon.ErrNoQuorum,
		pylon.ErrUnknownSubscriber,
		was.ErrDenied,
		was.ErrUnknownField,
		was.ErrUnknownUser,
	}
	cb.handle(mTestA, intHandler(func(i uint64) (uint64, error) {
		if int(i) == len(cases) {
			return 0, errors.New("plain failure")
		}
		// Wrapped, as real code returns them.
		return 0, fmt.Errorf("subscribe shard 3: %w", cases[i])
	}))
	for i, want := range cases {
		err := ca.call(mTestA, putInt(uint64(i)), nil)
		if !errors.Is(err, want) {
			t.Errorf("case %d: sentinel %v lost: got %v", i, want, err)
		}
		for j, other := range cases {
			if j != i && errors.Is(err, other) {
				t.Errorf("case %d: %v also reads as %v", i, err, other)
			}
		}
	}
	err := ca.call(mTestA, putInt(uint64(len(cases))), nil)
	if err == nil || codeFor(err) != 0 {
		t.Errorf("plain remote failure = %v, want an error that is no sentinel", err)
	}
	// A reserved code (3, 4) and a code past the table decode as plain
	// remote failures that keep the message.
	for _, code := range []byte{3, 4, byte(len(sentinels))} {
		conn, _ := script(t, kindError, cat([]byte{code}, str("over rate")))
		err := conn.call(mTestA, nil, nil)
		if err == nil || codeFor(err) != 0 || !strings.HasSuffix(err.Error(), ": remote: over rate") {
			t.Errorf("error code %d = %v, want a plain remote failure keeping its message", code, err)
		}
	}
}

func TestNotificationsArriveInOrder(t *testing.T) {
	ca, cb := pair(t)
	const n = 100
	got := make(chan uint64, n)
	cb.handle(mTestA, intHandler(func(i uint64) (uint64, error) {
		got <- i
		return 0, nil
	}))
	for i := uint64(0); i < n; i++ {
		if err := ca.notify(mTestA, putInt(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		select {
		case v := <-got:
			if v != i {
				t.Fatalf("notification %d arrived as %d: reordered", i, v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("notification %d never arrived", i)
		}
	}
}

// Call slots are reused, so a reply must never reach the wrong caller, or
// a caller that has already gone: 32 goroutines, many calls each.
func TestConcurrentCallsCorrelate(t *testing.T) {
	ca, cb := pair(t)
	cb.handle(mTestA, intHandler(func(v uint64) (uint64, error) { return 2 * v, nil }))
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				in := uint64(i*1000 + j)
				var out uint64
				if err := ca.call(mTestA, putInt(in), func(r *frame.Reader) { out = r.Uvarint() }); err != nil {
					t.Errorf("call %d: %v", in, err)
					return
				}
				if out != 2*in {
					t.Errorf("call %d: got %d", in, out)
				}
			}
		}(i)
	}
	wg.Wait()
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if len(ca.pending) != 0 || len(ca.free) == 0 || len(ca.free) > 32 {
		t.Errorf("after the storm: %d pending, %d free slots; want 0 and 1..32", len(ca.pending), len(ca.free))
	}
}

// A handler that issues a call back over the same connection must not
// deadlock: dispatch runs off the read loop, so the nested response can
// still be read.
func TestHandlerMayCallBackOnSameConn(t *testing.T) {
	ca, cb := pair(t)
	ca.handle(mTestB, intHandler(func(v uint64) (uint64, error) { return v + 1, nil }))
	cb.handle(mTestA, func(r *frame.Reader, out *bytes.Buffer) error {
		v := r.Uvarint()
		if err := r.Done(); err != nil {
			return err
		}
		return cb.call(mTestB, putInt(v), func(r *frame.Reader) { frame.PutUvarint(out, r.Uvarint()) })
	})
	done := make(chan error, 1)
	var out uint64
	go func() {
		done <- ca.call(mTestA, putInt(41), func(r *frame.Reader) { out = r.Uvarint() })
	}()
	select {
	case err := <-done:
		if err != nil || out != 42 {
			t.Fatalf("nested call = %d, %v; want 42", out, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("nested call deadlocked")
	}
}

func TestCloseFailsPendingCalls(t *testing.T) {
	ca, cb := pair(t)
	block, entered := make(chan struct{}), make(chan struct{})
	cb.handle(mTestA, func(r *frame.Reader, _ *bytes.Buffer) error {
		close(entered)
		<-block
		return r.Done()
	})
	done := make(chan error, 1)
	go func() { done <- ca.call(mTestA, nil, nil) }()
	<-entered // the call is in flight
	_ = ca.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnClosed) {
			t.Errorf("pending call err = %v, want ErrConnClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call never failed")
	}
	close(block)
	if err := ca.call(mTestA, nil, nil); !errors.Is(err, ErrConnClosed) {
		t.Errorf("call on a closed conn = %v, want ErrConnClosed", err)
	}
}

func TestPeerCloseReportsEOF(t *testing.T) {
	a, b := net.Pipe()
	errc := make(chan error, 1)
	ca := NewConn("a", a, func(err error) { errc <- err }).Start()
	cb := NewConn("b", b, nil).Start()
	_ = cb.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, io.EOF) {
			t.Errorf("onClose err = %v, want io.EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("onClose never fired")
	}
	if err := ca.Err(); !errors.Is(err, io.EOF) {
		t.Errorf("Err() = %v, want io.EOF", err)
	}
	_ = ca.Close()
}

// countingWriter counts transport writes.
type countingWriter struct {
	io.ReadWriteCloser
	mu     sync.Mutex
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	w.mu.Unlock()
	return w.ReadWriteCloser.Write(p)
}

// One message is one transport Write: a round trip is two, a notification
// one.
func TestOneWritePerMessage(t *testing.T) {
	a, b := net.Pipe()
	wa, wb := &countingWriter{ReadWriteCloser: a}, &countingWriter{ReadWriteCloser: b}
	ca, cb := NewConn("a", wa, nil), NewConn("b", wb, nil)
	seen := make(chan struct{}, 1)
	cb.handle(mTestA, intHandler(func(v uint64) (uint64, error) { return v, nil }))
	cb.handle(mTestB, intHandler(func(uint64) (uint64, error) { seen <- struct{}{}; return 0, nil }))
	ca.Start()
	cb.Start()
	defer ca.Close()
	defer cb.Close()
	if err := ca.call(mTestA, putInt(1<<40), func(r *frame.Reader) { r.Uvarint() }); err != nil {
		t.Fatal(err)
	}
	if err := ca.notify(mTestB, putInt(7)); err != nil {
		t.Fatal(err)
	}
	<-seen
	wa.mu.Lock()
	wb.mu.Lock()
	defer wa.mu.Unlock()
	defer wb.mu.Unlock()
	if wa.writes != 2 || wb.writes != 1 {
		t.Errorf("writes: caller %d, server %d; want 2 (request, notify) and 1 (response)", wa.writes, wb.writes)
	}
}
