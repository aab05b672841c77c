package burst

import (
	"testing"
	"time"

	"bladerunner/internal/burst/bursttest"
)

// These tests pin the BURST error paths a resubscribing device can hit: a
// corrupted stored request, a SID collision after a buggy reconnect, junk
// control frames, and a server rewrite racing a client-side resubscribe.
// The protocol's stance in every case is "drop the bad frame, keep the
// session" — a resubscribe storm after a regional failover must not let one
// malformed stream take down the multiplexed session carrying thousands of
// healthy ones.

// rawServer wires a ServerSession against a raw Session so tests can inject
// hand-crafted (including malformed) frames upstream.
func newRawServer(t *testing.T) (*Session, *ServerSession, *echoServer) {
	t.Helper()
	a, b := pipePair()
	srv := &echoServer{}
	ss := NewServerSession("brass", b, srv)
	raw := NewSession("raw-client", a, HandlerFuncs{})
	t.Cleanup(func() { raw.Close(); ss.Close() })
	return raw, ss, srv
}

func TestResubscribeErrorPaths(t *testing.T) {
	type step struct {
		frame Frame
		// msg, when non-nil, is encoded and sent instead of frame.Payload.
		msg any
	}
	cases := []struct {
		name        string
		steps       []step
		wantStreams int    // streams registered after all steps
		wantTopic   string // topic of stream 0 ("" = no stream expected)
		// wantDecodeErrors is what ServerSession.DecodeErrors must read:
		// dropped is never the same as unnoticed.
		wantDecodeErrors int64
	}{
		{
			// A device resubscribes with a stored request that was
			// corrupted on disk: the header claims 100 pairs, the frame
			// carries one.
			name: "malformed subscribe payload dropped",
			steps: []step{
				{frame: Frame{Type: FrameSubscribe, SID: 1, Payload: []byte{1, 100, 1, 'k', 1, 'v', 0}}},
			},
			wantDecodeErrors: 1,
			wantStreams:      0,
		},
		{
			// A malformed subscribe must not poison the session: the next
			// well-formed resubscribe on another SID still lands.
			name: "session survives malformed subscribe",
			steps: []step{
				{frame: Frame{Type: FrameSubscribe, SID: 1, Payload: []byte{0, 100, 'x'}}}, // nil header, body length past the end
				{frame: Frame{Type: FrameSubscribe, SID: 2}, msg: Subscribe{Header: Header{HdrTopic: "/MB/ok"}}},
			},
			wantDecodeErrors: 1,
			wantStreams:      1,
			wantTopic:        "/MB/ok",
		},
		{
			// A buggy client resubscribes reusing a live SID: the second
			// subscribe is a protocol violation and is dropped, and the
			// original stream (and its stored request) is untouched.
			name: "duplicate sid keeps first stream",
			steps: []step{
				{frame: Frame{Type: FrameSubscribe, SID: 7}, msg: Subscribe{Header: Header{HdrTopic: "/MB/first"}}},
				{frame: Frame{Type: FrameSubscribe, SID: 7}, msg: Subscribe{Header: Header{HdrTopic: "/MB/second"}}},
			},
			wantStreams: 1,
			wantTopic:   "/MB/first",
		},
		{
			// Cancel with a garbage payload: dropped, stream stays open.
			name: "malformed cancel ignored",
			steps: []step{
				{frame: Frame{Type: FrameSubscribe, SID: 3}, msg: Subscribe{Header: Header{HdrTopic: "/MB/live"}}},
				{frame: Frame{Type: FrameCancel, SID: 3, Payload: []byte{9, 'g', 'o'}}}, // reason length past the end
			},
			wantDecodeErrors: 1,
			wantStreams:      1,
			wantTopic:        "/MB/live",
		},
		{
			// Cancel for a SID the server never saw (the stream died in a
			// failover the client hasn't noticed): a no-op.
			name: "cancel on unknown stream",
			steps: []step{
				{frame: Frame{Type: FrameCancel, SID: 99}, msg: Cancel{Reason: "stale"}},
				{frame: Frame{Type: FrameSubscribe, SID: 4}, msg: Subscribe{Header: Header{HdrTopic: "/MB/after"}}},
			},
			wantStreams: 1,
			wantTopic:   "/MB/after",
		},
		{
			// Type 3 is a reserved gap in the frame numbering: the reader
			// frames it, the server serves nothing for it, and counts it.
			name: "reserved type 3 counted",
			steps: []step{
				{frame: Frame{Type: FrameType(3), SID: 5, Payload: []byte{9}}},
				{frame: Frame{Type: FrameSubscribe, SID: 6}, msg: Subscribe{Header: Header{HdrTopic: "/MB/reserved"}}},
			},
			wantDecodeErrors: 1,
			wantStreams:      1,
			wantTopic:        "/MB/reserved",
		},
		{
			// Batches flow downstream only: one sent upstream is dropped and
			// counted, and the session opens the next stream.
			name: "batch sent upstream counted",
			steps: []step{
				{frame: Frame{Type: FrameBatch, SID: 8}, msg: Batch{Deltas: []Delta{PayloadDelta(1, []byte("up"))}}},
				{frame: Frame{Type: FrameSubscribe, SID: 9}, msg: Subscribe{Header: Header{HdrTopic: "/MB/upstream"}}},
			},
			wantDecodeErrors: 1,
			wantStreams:      1,
			wantTopic:        "/MB/upstream",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, ss, srv := newRawServer(t)
			for _, s := range tc.steps {
				if s.msg != nil {
					if err := raw.SendMsg(s.frame.Type, s.frame.SID, s.msg); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err := WriteFrame(raw.rwc, s.frame); err != nil {
					t.Fatal(err)
				}
			}
			if tc.wantStreams > 0 {
				waitFor(t, "expected streams", func() bool {
					return len(ss.Streams()) == tc.wantStreams
				})
			} else {
				// Negative case: give the pipe a moment to deliver.
				time.Sleep(30 * time.Millisecond)
			}
			if got := len(ss.Streams()); got != tc.wantStreams {
				t.Fatalf("server tracks %d streams, want %d", got, tc.wantStreams)
			}
			waitFor(t, "decode errors counted", func() bool { return ss.DecodeErrors.Value() == tc.wantDecodeErrors })
			if tc.wantTopic != "" {
				waitFor(t, "stream registered with handler", func() bool { return srv.stream(0) != nil })
				if got := srv.stream(0).Request().Header[HdrTopic]; got != tc.wantTopic {
					t.Fatalf("stream 0 topic = %q, want %q", got, tc.wantTopic)
				}
			}
		})
	}
}

// TestUndecodableBatch pins the downstream half of the same stance: a batch
// that does not decode is dropped and the session lives on, but it is
// counted, and a live addressed stream is told — the lost batch is a gap,
// and axiom 1 says the endpoint hears about gaps.
func TestUndecodableBatch(t *testing.T) {
	cases := []struct {
		name    string
		sid     StreamID // 1 = the live stream
		payload []byte
		// wantFlow: the live stream must receive FlowDegraded
		// "undecodable batch".
		wantFlow bool
	}{
		{name: "delta count beyond input", sid: 1, payload: []byte{0x7F, 1, 0}, wantFlow: true},
		{name: "payload length past end", sid: 1, payload: []byte{1, byte(DeltaPayload), 7, 100, 'x', 0, 0, 0, 0, 0, 0}, wantFlow: true},
		{name: "trailing garbage", sid: 1, payload: append(encodeMsg(Batch{Deltas: []Delta{PayloadDelta(1, []byte("p"))}}), 0xEE), wantFlow: true},
		{name: "empty payload", sid: 1, payload: nil, wantFlow: true},
		{name: "addressed to no live stream", sid: 99, payload: []byte{0x7F}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := pipePair()
			raw := NewSession("raw-server", b, HandlerFuncs{})
			cli := NewClient("client", a, nil)
			t.Cleanup(func() { raw.Close(); cli.Close() })
			st, err := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/t"}})
			if err != nil {
				t.Fatal(err)
			}

			if err := WriteFrame(b, Frame{Type: FrameBatch, SID: tc.sid, Payload: tc.payload}); err != nil {
				t.Fatal(err)
			}
			// The session survived: a well-formed batch still lands, behind
			// the notice if there was one.
			if err := raw.SendMsg(FrameBatch, 1, Batch{Deltas: []Delta{PayloadDelta(7, []byte("after"))}}); err != nil {
				t.Fatal(err)
			}
			ev := bursttest.Events(t, st)
			if tc.wantFlow {
				got := recvBatch(t, ev)
				if len(got) != 1 || got[0].Type != DeltaFlowStatus || got[0].Flow != FlowDegraded || got[0].FlowDetail != "undecodable batch" {
					t.Fatalf("stream got %+v, want one FlowDegraded \"undecodable batch\"", got)
				}
			}
			if got := recvBatch(t, ev); len(got) != 1 || got[0].Seq != 7 {
				t.Fatalf("batch after the bad one = %+v, want seq 7", got)
			}
			if n := cli.DecodeErrors.Value(); n != 1 {
				t.Errorf("Client.DecodeErrors = %d, want 1", n)
			}
		})
	}
}

// TestRewriteRacingResubscribe drives the failover interleaving the durable
// log's cursor header depends on: the server issues a rewrite at the same
// moment the client cancels and resubscribes. The late rewrite addressed to
// the old SID must be dropped by the client (the old stream is gone), and
// the new stream's stored request must be exactly what the client sent —
// never a splice of old-stream state.
func TestRewriteRacingResubscribe(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, err := cli.Subscribe(Subscribe{Header: Header{
		HdrApp:    "messenger",
		HdrTopic:  "/MB/42",
		HdrCursor: "1.5",
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	oldSS := srv.stream(0)

	// Client side wins the race: the old stream is cancelled and the stored
	// (clamped) request is replayed on a fresh SID before the server's
	// rewrite arrives.
	stored := st.Request()
	if err := st.Cancel("resubscribe"); err != nil {
		t.Fatal(err)
	}
	st2, err := cli.Subscribe(stored)
	if err != nil {
		t.Fatal(err)
	}
	if st2.sid == st.sid {
		t.Fatal("resubscribe reused the old SID")
	}

	// Server side, unaware, rewrites the OLD stream's cursor forward. The
	// stream is already terminated server-side (cancel landed first on the
	// ordered session), so the rewrite errors locally...
	if err := oldSS.RewriteHeaderField(HdrCursor, "1.9"); err == nil {
		// ...or, if the cancel hasn't been dispatched yet, the rewrite hits
		// the wire addressed to the old SID and the client must drop it.
		t.Log("rewrite sent before cancel dispatched; relying on client-side drop")
	}

	waitFor(t, "new stream", func() bool { return clientStreams(cli) == 1 })
	time.Sleep(30 * time.Millisecond) // let any late rewrite arrive

	// The new stream's request is exactly the replayed one — the racing
	// rewrite never spliced into it.
	got := st2.Request()
	if got.Header[HdrCursor] != "1.5" {
		t.Errorf("new stream cursor = %q, want the replayed %q", got.Header[HdrCursor], "1.5")
	}
	if got.Header[HdrTopic] != "/MB/42" || got.Header[HdrApp] != "messenger" {
		t.Errorf("resubscribed request lost fields: %+v", got.Header)
	}

	// And the server can rewrite the NEW stream normally.
	waitFor(t, "server sees resubscribe", func() bool { return srv.stream(1) != nil })
	if err := srv.stream(1).RewriteHeaderField(HdrCursor, "1.11"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rewrite applied to new stream", func() bool {
		return st2.Request().Header[HdrCursor] == "1.11"
	})
}
