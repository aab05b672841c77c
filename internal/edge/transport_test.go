package edge

import (
	"io"
	"net"
	"testing"
	"time"

	"bladerunner/internal/burst"
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
	case batch := <-st.Events:
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

func TestLastMileConnLatency(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	lm := &LastMileConn{Inner: a, Latency: 30 * time.Millisecond}
	go func() {
		buf := make([]byte, 16)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := lm.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 30*time.Millisecond {
		t.Errorf("write took %v, want >= 30ms latency", took)
	}
	_ = lm.Close()
}

func TestLastMileConnBandwidth(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	lm := &LastMileConn{Inner: a, BytesPerSec: 10_000} // 10 KB/s
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	// 1000 bytes at 10KB/s = 100ms of serialization.
	start := time.Now()
	if _, err := lm.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 90*time.Millisecond {
		t.Errorf("1000B at 10KB/s took %v, want ~100ms", took)
	}
	_ = lm.Close()
}

func TestFlakyConnFailsAfterBytes(t *testing.T) {
	a, b := net.Pipe()
	fc := &FlakyConn{Inner: a, FailAfterBytes: 10}
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	if _, err := fc.Write([]byte("12345")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if _, err := fc.Write([]byte("1234567890")); err != io.ErrClosedPipe {
		t.Errorf("second write err = %v, want ErrClosedPipe", err)
	}
	if _, err := fc.Read(make([]byte, 4)); err != io.ErrClosedPipe {
		t.Errorf("read after death err = %v", err)
	}
	if _, err := fc.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Errorf("write after death err = %v", err)
	}
}

// TestFlakyLastMileTriggersDeviceRecovery chains the link models with a
// BURST session: when the flaky link dies mid-stream, the client learns via
// the synthesized flow status — the exact signal devices act on.
func TestFlakyLastMileTriggersDeviceRecovery(t *testing.T) {
	a, b := net.Pipe()
	srv := &upstreamServer{name: "brass"}
	srv.accept(b)
	flaky := &FlakyConn{Inner: a, FailAfterBytes: 256}
	cli := burst.NewClient("device", flaky, nil)
	defer cli.Close()
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrTopic: "/f"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	// Acks until the link budget is exhausted; the session dies.
	for i := 0; i < 50; i++ {
		if err := st.Ack(uint64(i)); err != nil {
			break
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case batch, ok := <-st.Events:
			if !ok {
				return // channel closed after flow status: recovery path engaged
			}
			for _, d := range batch.Deltas {
				if d.Type == burst.DeltaFlowStatus && d.Flow == burst.FlowDegraded {
					// Got the failure signal.
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
			return &LastMileConn{Inner: rwc, Latency: 20 * time.Millisecond}
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
