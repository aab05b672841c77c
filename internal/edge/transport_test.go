package edge

import (
	"io"
	"net"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
)

func TestBURSTOverRealTCP(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	srv := &upstreamServer{name: "brass-tcp"}
	if _, err := n.Serve("brass-tcp", srv.accept); err != nil {
		t.Fatal(err)
	}
	p := NewProxy("pop-tcp", n, StaticRouter("brass-tcp"))
	defer p.Close()
	if _, err := n.Serve("pop-tcp", p.Accept); err != nil {
		t.Fatal(err)
	}

	rwc, err := n.Dial("pop-tcp")
	if err != nil {
		t.Fatal(err)
	}
	cli := burst.NewClient("device", rwc, nil)
	defer cli.Close()

	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp: "x", burst.HdrTopic: "/tcp/1",
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream over TCP", func() bool { return srv.stream(0) != nil })
	if got := srv.stream(0).Request().Header[burst.HdrTopic]; got != "/tcp/1" {
		t.Errorf("topic over TCP = %q", got)
	}
	if err := srv.stream(0).SendBatch(burst.PayloadDelta(1, []byte("over real sockets"))); err != nil {
		t.Fatal(err)
	}
	select {
	case batch := <-bursttest.Events(t, st):
		if string(batch.Deltas[0].Payload) != "over real sockets" {
			t.Errorf("payload = %q", batch.Deltas[0].Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery over TCP")
	}
	// Rewrites also traverse TCP.
	if err := srv.stream(0).RewriteHeaderField("k", "v"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rewrite over TCP", func() bool { return st.Request().Header["k"] == "v" })
}

func TestTCPNetworkUnknownTarget(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	if _, err := n.Dial("ghost"); err == nil {
		t.Error("dial to unknown target succeeded")
	}
}

// dyingConn is a last-mile link that drops for good once budget bytes have
// been written through it.
type dyingConn struct {
	io.ReadWriteCloser
	budget int
}

func (c *dyingConn) Write(p []byte) (int, error) {
	if c.budget -= len(p); c.budget < 0 {
		_ = c.Close()
		return 0, io.ErrClosedPipe
	}
	return c.ReadWriteCloser.Write(p)
}

// slowConn is a last-mile link with a fixed one-way write latency.
type slowConn struct{ io.ReadWriteCloser }

func (c slowConn) Write(p []byte) (int, error) {
	time.Sleep(20 * time.Millisecond)
	return c.ReadWriteCloser.Write(p)
}

// TestFlakyLastMileTriggersDeviceRecovery puts a link that dies mid-stream
// under a BURST session: the client learns via the synthesized flow status —
// the exact signal devices act on — and then the closed channel.
func TestFlakyLastMileTriggersDeviceRecovery(t *testing.T) {
	a, b := net.Pipe()
	srv := &upstreamServer{name: "brass"}
	srv.accept(b)
	cli := burst.NewClient("device", &dyingConn{ReadWriteCloser: a, budget: 256}, nil)
	defer cli.Close()
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrTopic: "/f"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	// More subscribes until the link budget is exhausted; the session dies.
	for i := 0; i < 50; i++ {
		if _, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrTopic: "/g"}}); err != nil {
			break
		}
	}
	signalled := false
	ev := bursttest.Events(t, st)
	deadline := time.After(5 * time.Second)
	for {
		select {
		case batch, ok := <-ev:
			if !ok {
				if !signalled {
					t.Error("the stream ended without the upstream-lost flow status")
				}
				return
			}
			for _, d := range batch.Deltas {
				if d.Flow == burst.FlowDegraded && d.FlowDetail == burst.UpstreamLostDetail {
					signalled = true
				}
			}
		case <-deadline:
			t.Fatal("link death never surfaced to the client")
		}
	}
}

func TestTransformDialerInsertsLinkModel(t *testing.T) {
	n := NewPipeNetwork()
	srv := &upstreamServer{name: "brass"}
	n.Register("brass", srv.accept)
	slow := TransformDialer{
		Inner: n,
		Transform: func(rwc io.ReadWriteCloser) io.ReadWriteCloser {
			return slowConn{rwc}
		},
	}
	rwc, err := slow.Dial("brass")
	if err != nil {
		t.Fatal(err)
	}
	cli := burst.NewClient("device", rwc, nil)
	defer cli.Close()
	start := time.Now()
	if _, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrTopic: "/x"}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream via slow link", func() bool { return srv.stream(0) != nil })
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Errorf("subscribe took %v, want >= 20ms link latency", took)
	}
	// Errors pass through.
	if _, err := slow.Dial("ghost"); err == nil {
		t.Error("unknown target dial succeeded through transform")
	}
	// Nil transform is identity.
	plain := TransformDialer{Inner: n}
	if _, err := plain.Dial("brass"); err != nil {
		t.Errorf("identity transform dial: %v", err)
	}
}
