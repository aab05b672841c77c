package bladerunner

import (
	"io"
	"runtime"
	"testing"

	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/edge"
	"bladerunner/internal/pylon"
)

// heldStreams opens n streams from one device through the pipe network's
// target "entry" and reports the heap they leave live, per stream: HeapAlloc
// after two GCs (the second empties sync.Pool's victim cache, whatever ran
// before), before the opens and after every one has reached the server end,
// which signals each on opened. The device and its streams stay open until
// the test ends, so no teardown frees heap while the next is measured.
func heldStreams(t *testing.T, pn *edge.PipeNetwork, n int, opened <-chan struct{}) float64 {
	t.Helper()
	rwc, err := pn.Dial("entry")
	if err != nil {
		t.Fatal(err)
	}
	cli := burst.NewClient("device", rwc, nil)
	t.Cleanup(func() { cli.Close() })
	req := burst.Subscribe{Header: burst.Header{burst.HdrApp: "hold", burst.HdrUser: "9"}}
	held := make([]*burst.ClientStream, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range held {
		if held[i], err = cli.Subscribe(req); err != nil {
			t.Fatal(err)
		}
		<-opened
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	t.Cleanup(func() { runtime.KeepAlive(held) })
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// holdApp is an application whose streams open with no topic and signal
// opened.
type holdApp struct{ opened chan struct{} }

func (a holdApp) Name() string                                 { return "hold" }
func (a holdApp) NewInstance(*brass.Runtime) brass.AppInstance { return a }
func (a holdApp) OnStreamOpen(*brass.Stream) error             { a.opened <- struct{}{}; return nil }
func (a holdApp) OnStreamClose(*brass.Stream, string)          {}
func (a holdApp) OnEvent(pylon.Event)                          {}

// TestOpenStreamsHoldOneObjectPerHop pins what an open stream keeps live at
// each server hop, from 2 000 streams held open; it is not skipped under
// -short, as the race detector leaves these sizes alone. The device and a
// bare upstream end (its ClientStream and pairs, a ServerStream, both
// sessions' map entries: ~1 003 B) are measured alone first and taken off the
// other two. A relay hop is the relay, which holds its downstream stream and
// its first leg in one 760-byte object, in the 768-byte class with its malloc
// header, and three map entries: ~913 B, 945 when the downstream stream was a
// 448-byte object of its own beside a 352-byte relay. A BRASS hop is its
// Stream, 568 bytes holding its BURST stream (the 576-byte class), and the
// instance's map entry, less the bare end's ServerStream: ~165 B, 196 when
// the Stream was 160 bytes beside the ServerStream. Eight bytes more in
// either object moves it up a class (896, 640) and fails the bound, which
// sits below the number before as well.
func TestOpenStreamsHoldOneObjectPerHop(t *testing.T) {
	const n = 2000
	opened := make(chan struct{})
	upstream := func(rwc io.ReadWriteCloser) {
		burst.NewServerSession("up", rwc, burst.ServerHandlerFuncs{
			Subscribe: func(*burst.ServerStream) { opened <- struct{}{} },
		})
	}
	pn := edge.NewPipeNetwork()
	pn.Register("entry", upstream)
	bare := heldStreams(t, pn, n, opened)

	pn = edge.NewPipeNetwork()
	pn.Register("up", upstream)
	pop := edge.NewProxy("pop", pn, edge.StaticRouter("up"))
	t.Cleanup(pop.Close)
	pn.Register("entry", pop.Accept)
	relayed := heldStreams(t, pn, n, opened)

	pn = edge.NewPipeNetwork()
	host := brass.NewHost(brass.HostConfig{ID: "hold-host"}, nil, nil, nil)
	t.Cleanup(host.Close)
	host.RegisterApp(holdApp{opened})
	pn.Register("entry", func(rwc io.ReadWriteCloser) { host.AcceptSession("hold", rwc) })
	hosted := heldStreams(t, pn, n, opened)

	relay, hop := relayed-bare, hosted-bare
	t.Logf("per stream: device and bare upstream %.0f B, relay hop %.0f B, BRASS hop %.0f B less a ServerStream", bare, relay, hop)
	if relay > 930 {
		t.Errorf("a relay hop holds %.0f B a stream, want <= 930", relay)
	}
	if hop > 180 {
		t.Errorf("a BRASS hop holds %.0f B a stream less a ServerStream, want <= 180", hop)
	}
}
