package device

import (
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/overload"
	"bladerunner/internal/sim"
)

// These are white-box tests of the device's one recovery path: a shed marker
// freezes the stream's resume point and reopens the stream from its stored
// request, resume tokens lowered to the point; repeated markers coalesce.

// newIdleDevice builds a device on a manual engine whose timers never fire:
// After(0, fn) stays pending, which makes pending-state assertions
// deterministic.
func newIdleDevice(t *testing.T) (*Device, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine(time.Unix(0, 0))
	d := New(Config{User: 7, POPs: []string{"pop-0"}}, nil, nil, eng)
	t.Cleanup(d.Close)
	return d, eng
}

func newIdleStream(d *Device) *Stream {
	return &Stream{
		dev:     d,
		Updates: make(chan burst.Delta, 4),
		Flow:    make(chan burst.FlowCode, 4),
		req:     burst.Subscribe{Header: burst.Header{burst.HdrApp: "messenger"}},
		bo:      d.backoff.Child(1),
	}
}

// seen moves st's resume point to seq, as a payload of its current
// incarnation would.
func seen(st *Stream, seq uint64) {
	d := burst.PayloadDelta(seq, nil)
	st.rec.Step(&d, &st.req)
}

func TestCursorResumeCoalesces(t *testing.T) {
	d, eng := newIdleDevice(t)
	_, streams := pipeSession(t, d)
	st, err := d.Subscribe("messenger", "messenger", burst.Header{burst.HdrCursor: "1.4"})
	if err != nil {
		t.Fatal(err)
	}
	srv := nextStream(t, streams)

	// The first marker schedules the resume; the engine never runs, so it
	// stays pending and the next two markers coalesce into it.
	marker := burst.FlowStatusDelta(burst.FlowDegraded, overload.ShedMarkerPrefix+"stream-admission")
	if err := srv.SendBatch(marker, marker, marker); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case <-st.Flow:
		case <-time.After(5 * time.Second):
			t.Fatalf("marker %d never surfaced on Flow", i)
		}
	}
	waitFor(t, "two coalesced markers", func() bool { return d.ResumesCoalesced.Value() == 2 })
	if got := d.Resumes.Value(); got != 0 {
		t.Fatalf("Resumes = %d before the timer fired", got)
	}
	// One resume was scheduled for the three markers, and it is one reopen.
	if got := eng.Pending(); got != 1 {
		t.Fatalf("%d timers pending after three markers, want 1", got)
	}
	eng.Step()
	nextStream(t, streams)
	if got := d.Resumes.Value(); got != 1 {
		t.Fatalf("Resumes = %d after the timer fired, want 1", got)
	}
}

// TestResubscribeClampsCursor proves the client half of never-fabricate:
// a resubscribe lowers a server-advanced cursor to the stream's resume
// point, and leaves an honest (lower) cursor untouched.
func TestResubscribeClampsCursor(t *testing.T) {
	cases := []struct {
		name   string
		cursor string
		seq    uint64
		want   string
	}{
		{"over-claim lowered", "2.9", 4, "2.4"},
		{"honest claim untouched", "2.3", 4, "2.3"},
		{"sentinel passes through", "earliest", 4, "earliest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := newIdleDevice(t)
			st := newIdleStream(d)
			st.req.Header[burst.HdrCursor] = tc.cursor
			seen(st, tc.seq)

			cli, streams := pipeSession(t, d)
			st.resubscribe(cli)
			got := nextStream(t, streams).Request().Header[burst.HdrCursor]
			if got != tc.want {
				t.Fatalf("resubscribed cursor = %q, want %q", got, tc.want)
			}
		})
	}
}

// pipeSession connects d to a scripted BURST server over a pipe, as if
// Connect had dialed it. streams receives every server stream opened.
func pipeSession(t *testing.T, d *Device) (cli *burst.Client, streams chan *burst.ServerStream) {
	t.Helper()
	a, b := net.Pipe()
	streams = make(chan *burst.ServerStream, 4) // as many as any test opens
	srv := burst.NewServerSession("brass", b, burst.ServerHandlerFuncs{
		Subscribe: func(ss *burst.ServerStream, _ burst.Subscribe) { streams <- ss },
	})
	cli = burst.NewClient("dev", a, nil)
	t.Cleanup(func() { cli.Close(); srv.Close() })
	d.mu.Lock()
	d.client, d.connected = cli, true
	d.mu.Unlock()
	return cli, streams
}

func nextStream(t *testing.T, streams chan *burst.ServerStream) *burst.ServerStream {
	t.Helper()
	select {
	case ss := <-streams:
		return ss
	case <-time.After(5 * time.Second):
		t.Fatal("no stream reached the server")
		return nil
	}
}

// TestShedResumeReopensFromFrozenPoint is the regression for the resync
// hole: after a shed marker, neither a payload that lands behind the gap nor
// a rewrite describing payloads that never arrived may lift the resume
// point. The resubscribe must carry BOTH tokens lowered to the last payload
// seen before the marker.
func TestShedResumeReopensFromFrozenPoint(t *testing.T) {
	d, eng := newIdleDevice(t)
	_, streams := pipeSession(t, d)
	st, err := d.Subscribe("messenger", "messenger", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := nextStream(t, streams)

	resumeState := func(seq uint64) burst.Delta {
		n := strconv.FormatUint(seq, 10)
		return burst.RewriteDelta(burst.Header{burst.HdrResumeSeq: n, burst.HdrCursor: "1." + n}, nil)
	}
	send := func(deltas ...burst.Delta) {
		t.Helper()
		if err := srv.SendBatch(deltas...); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(1); seq <= 5; seq++ {
		send(burst.PayloadDelta(seq, []byte("m")), resumeState(seq))
	}
	send(burst.FlowStatusDelta(burst.FlowDegraded, overload.ShedMarkerPrefix+"stream-admission"))
	send(resumeState(9)) // admission shed 6..8 and now 9: only the rewrite survives
	send(burst.PayloadDelta(9, []byte("m")))
	for _, want := range []uint64{1, 2, 3, 4, 5, 9} {
		select {
		case <-st.Updates:
		case <-time.After(5 * time.Second):
			t.Fatalf("update %d never arrived", want)
		}
	}
	if got := st.LastSeq(); got != 5 {
		t.Fatalf("resume point = %d after marker + isolated payload 9, want 5", got)
	}
	if got := st.HeaderField(burst.HdrResumeSeq); got != "9" {
		t.Fatalf("stored resume-seq = %q, want the over-claim 9 the server rewrote", got)
	}

	// Release the pending resume: cancel + resubscribe on the live session.
	// (The marker was pumped before payload 9 reached Updates, so its After
	// is on the engine by now.)
	if !eng.Step() {
		t.Fatal("no resume pending after the shed marker")
	}
	req := nextStream(t, streams).Request()
	if seq, cur := req.Header[burst.HdrResumeSeq], req.Header[burst.HdrCursor]; seq != "5" || cur != "1.5" {
		t.Fatalf("resubscribe carried resume-seq %q cursor %q, want 5 and 1.5", seq, cur)
	}
	if got := d.Resumes.Value(); got != 1 {
		t.Errorf("Resumes = %d, want 1", got)
	}
	if got := st.LastSeq(); got != 5 {
		t.Errorf("resume point = %d after the reopen, want 5", got)
	}
}

// A stream whose stored request carries no resume token has nothing to
// resume from: a shed marker only surfaces on Flow.
func TestShedMarkerWithoutResumeTokenOnlySurfaces(t *testing.T) {
	d, eng := newIdleDevice(t)
	_, streams := pipeSession(t, d)
	st, err := d.Subscribe("typing", "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := nextStream(t, streams)
	if err := srv.SendBatch(burst.FlowStatusDelta(burst.FlowDegraded, overload.ShedMarkerPrefix+"brass-loop")); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-st.Flow:
		if code != burst.FlowDegraded {
			t.Fatalf("flow = %v", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("marker never surfaced on Flow")
	}
	if eng.Pending() != 0 || d.ResumesCoalesced.Value() != 0 {
		t.Fatalf("a stream with no resume token scheduled a resume (timers=%d, coalesced=%d)",
			eng.Pending(), d.ResumesCoalesced.Value())
	}
}

// What a superseded incarnation still has buffered reaches Updates but moves
// no state: its FlowDegraded landing after the reopen's FlowRecovered would
// leave the app degraded for ever, and its payloads sit behind a gap the
// reopen is already repairing.
func TestSupersededIncarnationMovesNoState(t *testing.T) {
	d, eng := newIdleDevice(t)
	st := newIdleStream(d)
	st.req.Header[burst.HdrCursor] = "1.4"
	seen(st, 4)
	st.mu.Lock()
	st.pushFlowLocked(burst.FlowRecovered) // the reopen's
	st.mu.Unlock()

	cli, streams := pipeSession(t, d)
	old, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrApp: "messenger"}})
	if err != nil {
		t.Fatal(err)
	}
	srv := nextStream(t, streams)
	if err := srv.SendBatch(burst.PayloadDelta(7, []byte("late")),
		burst.FlowStatusDelta(burst.FlowDegraded, overload.ShedMarkerPrefix+"stream-admission")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Terminate("superseded"); err != nil { // ends old's queue behind the batch
		t.Fatal(err)
	}
	st.pump(old) // st.cur is not old

	if got := len(st.Updates); got != 1 {
		t.Errorf("the superseded stream's payload did not reach Updates (len %d)", got)
	}
	if got := st.LastSeq(); got != 4 {
		t.Errorf("resume point = %d, want 4: a superseded payload advanced it", got)
	}
	if code := <-st.Flow; code != burst.FlowRecovered || len(st.Flow) != 0 {
		t.Errorf("Flow = %v then %d more, want FlowRecovered alone", code, len(st.Flow))
	}
	if eng.Pending() != 0 {
		t.Error("a superseded stream's shed marker scheduled a resume")
	}
}

// Resubscribes race by design — the reconnect, a per-stream retry and a
// shed-marker resume may each decide to reopen the stream — so the request
// one of them is still sending must not be the map the next one lowers its
// tokens in. Fails under -race if they share it.
func TestConcurrentResubscribesShareNoRequest(t *testing.T) {
	d, _ := newIdleDevice(t)
	cli, streams := pipeSession(t, d)
	st := newIdleStream(d)
	st.req.Header[burst.HdrCursor] = "1.9"
	st.req.Header[burst.HdrResumeSeq] = "9"
	seen(st, 5)

	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.resubscribe(cli)
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if h := nextStream(t, streams).Request().Header; h[burst.HdrCursor] != "1.5" || h[burst.HdrResumeSeq] != "5" {
			t.Errorf("resubscribe %d carried %v", i, h)
		}
	}
}
