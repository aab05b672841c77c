package bladerunner

import (
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

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
// release, which the test defers, so no teardown frees heap while the next
// is measured.
func heldStreams(t *testing.T, pn *edge.PipeNetwork, n int, opened <-chan struct{}) (perStream float64, release func()) {
	t.Helper()
	rwc, err := pn.Dial("entry")
	if err != nil {
		t.Fatal(err)
	}
	cli := burst.NewClient("device", rwc, nil)
	held := make([]*burst.ClientStream, n)
	release = func() { runtime.KeepAlive(held); cli.Close() }
	req := burst.Subscribe{Header: burst.Header{burst.HdrApp: "hold", burst.HdrUser: "9"}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range held {
		if held[i], err = cli.Subscribe(req); err != nil {
			release()
			t.Fatal(err)
		}
		<-opened
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n), release
}

// awaitTeardown waits until no goroutine runs that was not running at
// before, the ids a test took as it started; a test defers it first, so it
// runs last. A session still tearing down drops the heap it held, and a
// repeated run must not measure while it does.
func awaitTeardown(t *testing.T, before []uint64) {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		started := slices.DeleteFunc(goroutineIDs(), func(id uint64) bool { return slices.Contains(before, id) })
		if len(started) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("teardown left goroutines %v running", started)
			return
		}
	}
}

// goroutineIDs returns the ids of the live goroutines.
func goroutineIDs() []uint64 {
	buf := make([]byte, 64<<10)
	for len(buf) == runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	var ids []uint64
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "goroutine "); ok {
			id, _, _ := strings.Cut(rest, " ")
			if n, err := strconv.ParseUint(id, 10, 64); err == nil {
				ids = append(ids, n)
			}
		}
	}
	return ids
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
// header, and its two streams' entries in their sessions' maps: ~876 B. A
// BRASS hop is its Stream, 568 bytes holding its BURST stream (the 576-byte
// class), and the instance's map entry, less the bare end's ServerStream:
// ~165 B. Eight bytes more in either object moves it up a class (896, 640)
// and fails the bound. A run closes what it opened, and waits for every
// goroutine it started to exit, before it returns. It defers that rather
// than registering cleanups: a finished run's *testing.T keeps its
// cleanups, and can still be live while the next run measures.
func TestOpenStreamsHoldOneObjectPerHop(t *testing.T) {
	defer awaitTeardown(t, goroutineIDs())
	const n = 2000
	opened := make(chan struct{})
	upstream := func(rwc io.ReadWriteCloser) {
		burst.NewServerSession("up", rwc, burst.ServerHandlerFuncs{
			Subscribe: func(*burst.ServerStream) { opened <- struct{}{} },
		})
	}
	pn := edge.NewPipeNetwork()
	pn.Register("entry", upstream)
	bare, release := heldStreams(t, pn, n, opened)
	defer release()

	pn = edge.NewPipeNetwork()
	pn.Register("up", upstream)
	pop := edge.NewProxy("pop", pn, edge.StaticRouter("up"))
	defer pop.Close()
	pn.Register("entry", pop.Accept)
	relayed, release := heldStreams(t, pn, n, opened)
	defer release()

	pn = edge.NewPipeNetwork()
	host := brass.NewHost(brass.HostConfig{ID: "hold-host"}, nil, nil, nil)
	defer host.Close()
	host.RegisterApp(holdApp{opened})
	pn.Register("entry", func(rwc io.ReadWriteCloser) { host.AcceptSession("hold", rwc) })
	hosted, release := heldStreams(t, pn, n, opened)
	defer release()

	relay, hop := relayed-bare, hosted-bare
	t.Logf("per stream: device and bare upstream %.0f B, relay hop %.0f B, BRASS hop %.0f B less a ServerStream", bare, relay, hop)
	if relay > 890 {
		t.Errorf("a relay hop holds %.0f B a stream, want <= 890", relay)
	}
	if hop > 180 {
		t.Errorf("a BRASS hop holds %.0f B a stream less a ServerStream, want <= 180", hop)
	}
}
