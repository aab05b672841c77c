package ctrl

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"bladerunner/internal/edge"
	"bladerunner/internal/faults"
	"bladerunner/internal/frame"
	"bladerunner/internal/pylon"
)

// listenNets are the networks a ctrl link rides: each serves accept as
// target and returns the dialer that reaches it.
var listenNets = []struct {
	name  string
	serve func(t *testing.T, target string, accept func(io.ReadWriteCloser)) edge.Dialer
}{
	{"pipe", func(t *testing.T, target string, accept func(io.ReadWriteCloser)) edge.Dialer {
		n := edge.NewPipeNetwork()
		n.Register(target, accept)
		return n
	}},
	{"fault", func(t *testing.T, target string, accept func(io.ReadWriteCloser)) edge.Dialer {
		n := faults.NewFaultNetwork(edge.NewPipeNetwork(), nil)
		n.Register(target, accept)
		return n
	}},
	{"tcp", func(t *testing.T, target string, accept func(io.ReadWriteCloser)) edge.Dialer {
		n := edge.NewTCPNetwork()
		if _, err := n.Serve(target, accept); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n
	}},
}

// pylonLink serves svc on a Server behind d's target "pylon" and dials a
// PylonClient to it.
func pylonLink(t *testing.T, d edge.Dialer) *PylonClient {
	t.Helper()
	var cli *PylonClient
	conn, err := Dial(d, "pylon", "test->pylon", func(c *Conn) { cli = NewPylonClient(c) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return cli
}

// A publish through a PylonClient reaches its registered host over every
// network a Server can be put behind.
func TestServerAndDialOverEveryNetwork(t *testing.T) {
	for _, tc := range listenNets {
		t.Run(tc.name, func(t *testing.T) {
			svc := newPylon(t)
			srv := NewServer("pylon", func(c *Conn) { ServePylon(c, svc, nil) })
			t.Cleanup(srv.Close)
			cli := pylonLink(t, tc.serve(t, "pylon", srv.Accept))

			sub := &collector{id: "host-1"}
			cli.RegisterHost(sub)
			if err := cli.Subscribe("/t/1", "host-1"); err != nil {
				t.Fatal(err)
			}
			if n, err := cli.Publish(pylon.Event{Topic: "/t/1", Ref: 7}); err != nil || n != 1 {
				t.Fatalf("Publish = %d, %v; want fan-out 1", n, err)
			}
			if got := sub.await(t, 1)[0]; got.Ref != 7 {
				t.Errorf("delivered Ref %d, want 7", got.Ref)
			}
		})
	}
}

// A cut tier link is signalled, not hung: the call in flight fails at
// once, the next one fails as closed, the target refuses dials until it
// heals, and a link dialed after the heal works.
func TestCutLinkFailsCallsAndDials(t *testing.T) {
	svc := newPylon(t)
	entered := make(chan struct{}, 1)
	srv := NewServer("pylon", func(c *Conn) {
		ServePylon(c, svc, nil)
		wait := c.handlers[mWaitSubscriber]
		c.handle(mWaitSubscriber, func(r *frame.Reader, out *bytes.Buffer) error {
			entered <- struct{}{}
			return wait(r, out)
		})
	})
	t.Cleanup(srv.Close)
	fn := faults.NewFaultNetwork(edge.NewPipeNetwork(), nil)
	fn.Register("pylon", srv.Accept)
	cli := pylonLink(t, fn)

	waited := make(chan bool, 1)
	go func() { waited <- cli.WaitForSubscriber("/never", 10*time.Second) }()
	<-entered
	start := time.Now()
	fn.Cut("pylon")
	select {
	case ok := <-waited:
		if ok {
			t.Error("WaitForSubscriber reported a subscriber across a cut link")
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("WaitForSubscriber returned %v after the cut", d)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitForSubscriber still blocked 1s after the cut")
	}
	// Release the server's handler, still waiting on a conn that is gone.
	svc.RegisterHost(&collector{id: "local"})
	if err := svc.Subscribe("/never", "local"); err != nil {
		t.Fatal(err)
	}

	if _, err := cli.Publish(pylon.Event{Topic: "/t/1"}); !errors.Is(err, ErrConnClosed) {
		t.Errorf("Publish after the cut = %v, want ErrConnClosed", err)
	}
	if c, err := Dial(fn, "pylon", "test->pylon", nil); err == nil {
		_ = c.Close()
		t.Error("Dial to a cut target succeeded")
	}
	fn.Heal("pylon")
	if _, err := pylonLink(t, fn).Publish(pylon.Event{Topic: "/t/1"}); err != nil {
		t.Errorf("Publish on a link dialed after the heal = %v", err)
	}
}

// liveConns is how many conns s holds.
func liveConns(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// A Server holds its live conns only: one the client closes is forgotten,
// Close closes the rest, and a transport accepted after Close is closed.
func TestServerForgetsClosedConnsAndClosesTheRest(t *testing.T) {
	srv := NewServer("node", func(c *Conn) { ServeNode(c, "test", nil) })
	pn := edge.NewPipeNetwork()
	pn.Register("node", srv.Accept)
	dial := func() *Conn {
		t.Helper()
		c, err := Dial(pn, "node", "test->node", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	conns := []*Conn{dial(), dial(), dial()}
	for _, c := range conns {
		if role, err := Ping(c); err != nil || role != "test" {
			t.Fatalf("Ping = %q, %v", role, err)
		}
	}
	if n := liveConns(srv); n != 3 {
		t.Fatalf("server holds %d conns, want 3", n)
	}

	_ = conns[0].Close()
	waitUntil(t, "the server to forget the closed conn", func() bool { return liveConns(srv) == 2 })

	srv.Close()
	if n := liveConns(srv); n != 0 {
		t.Errorf("server holds %d conns after Close, want 0", n)
	}
	late := dial()
	for _, c := range append(conns[1:], late) {
		waitUntil(t, "the server's close to reach the client", func() bool {
			return errors.Is(c.Err(), io.EOF)
		})
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
