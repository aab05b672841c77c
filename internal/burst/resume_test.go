package burst

import (
	"math/rand"
	"testing"

	"bladerunner/internal/durlog"
	"bladerunner/internal/overload"
)

// The rule both device models hold a Recovery for, stated once: what every
// kind of delta makes the holder do, how the resume point follows the
// payloads of the current incarnation up to the first repairable shed marker,
// and that a reopen lowers the request's cursor to it, never raises it.
func TestResumePoint(t *testing.T) {
	type step struct {
		delta  Delta  // Step(&delta, stored) unless reopen is set...
		want   Action // ...which must answer want
		reopen Header // Reopen(&Subscribe{Header: reopen}) when non-nil
		header Header // the header after that Reopen
	}
	payload := func(seq uint64) step { return step{delta: PayloadDelta(seq, nil), want: Apply} }
	marker := func(want Action) step {
		return step{delta: FlowStatusDelta(FlowDegraded, overload.ShedMarkerPrefix+"stream-admission"), want: want}
	}
	lost := func(want Action) step {
		return step{delta: FlowStatusDelta(FlowDegraded, UpstreamLostDetail), want: want}
	}
	reopen := func(h, want Header) step { return step{reopen: h, header: want} }
	resumable := Header{HdrApp: "messenger", HdrCursor: "1.0"}
	cases := []struct {
		name   string
		stored Header // the stream's stored request; resumable when nil
		steps  []step
		point  uint64
	}{
		{"in-order payloads advance", nil, []step{payload(1), payload(2), payload(3)}, 3},
		{"a duplicate does not retreat", nil, []step{payload(4), payload(2)}, 4},
		{"marker then isolated later payload does not", nil, []step{payload(5), marker(Reopen), payload(9)}, 5},
		{"an over-claiming cursor is lowered", nil, []step{
			payload(5), marker(Reopen), payload(9),
			reopen(Header{HdrCursor: "1.9", HdrApp: "messenger"}, Header{HdrCursor: "1.5", HdrApp: "messenger"}),
		}, 5},
		{"a log-less cursor keeps its epoch 0", nil, []step{
			payload(5), reopen(Header{HdrCursor: "0.9"}, Header{HdrCursor: "0.5"}),
		}, 5},
		{"an honest lower token is untouched", nil, []step{
			payload(5), reopen(Header{HdrCursor: "2.4"}, Header{HdrCursor: "2.4"}),
		}, 5},
		{"sentinels and malformed values pass through", nil, []step{
			payload(5),
			reopen(Header{HdrCursor: "earliest"}, Header{HdrCursor: "earliest"}),
			reopen(Header{HdrCursor: "live"}, Header{HdrCursor: "live"}),
			reopen(Header{HdrCursor: "many"}, Header{HdrCursor: "many"}),
		}, 5},
		{"a request without tokens gains none", nil, []step{
			payload(5), reopen(Header{HdrApp: "typing"}, Header{HdrApp: "typing"}),
		}, 5},
		{"after Reopen the point advances again", nil, []step{
			payload(5), marker(Reopen), payload(9),
			reopen(Header{HdrCursor: "1.9"}, Header{HdrCursor: "1.5"}),
			payload(6), payload(7),
		}, 7},
		{"a marker without a resume token only surfaces", Header{HdrApp: "typing"}, []step{
			payload(5), marker(Surface), payload(9),
		}, 9},
		{"a log-less cursor makes a marker repairable", Header{HdrCursor: "0.2"}, []step{
			payload(5), marker(Reopen), payload(9),
		}, 5},
		{"two markers are one reopen", nil, []step{payload(5), marker(Reopen), marker(Coalesce), marker(Coalesce)}, 5},
		{"a marker after Reopen is a second reopen", nil, []step{
			payload(5), marker(Reopen), marker(Coalesce),
			reopen(Header{HdrCursor: "1.9"}, Header{HdrCursor: "1.5"}),
			payload(6), marker(Reopen),
		}, 6},
		{"recovered codes and other details only surface", nil, []step{
			payload(5),
			{delta: FlowStatusDelta(FlowRecovered, overload.RecoveredMarkerPrefix+"stream-admission"), want: Surface},
			{delta: FlowStatusDelta(FlowRecovered, overload.ShedMarkerPrefix+"mislabelled"), want: Surface},
			{delta: FlowStatusDelta(FlowDegraded, overload.RecoveredMarkerPrefix+"stream-admission"), want: Surface},
			{delta: FlowStatusDelta(FlowRerouted, "failover"), want: Surface},
			payload(6),
		}, 6},
		{"the upstream-lost marker reopens a stream with a cursor", nil, []step{
			payload(5), lost(Reopen), payload(9),
			reopen(Header{HdrCursor: "1.9"}, Header{HdrCursor: "1.5"}),
		}, 5},
		{"the upstream-lost marker reopens a stream without a cursor", Header{HdrApp: "typing"}, []step{
			payload(5), lost(Reopen), lost(Coalesce), payload(9),
			reopen(Header{HdrApp: "typing"}, Header{HdrApp: "typing"}),
		}, 5},
		{"a shed marker behind a lost upstream is the same reopen", nil, []step{
			payload(5), lost(Reopen), marker(Coalesce),
			reopen(Header{HdrCursor: "1.9"}, Header{HdrCursor: "1.5"}),
			payload(6), lost(Reopen),
		}, 6},
		{"other degraded details only surface", Header{HdrApp: "typing"}, []step{
			payload(5), {delta: FlowStatusDelta(FlowDegraded, "upstream brass-1 lost"), want: Surface}, payload(9),
		}, 9},
		{"a rewrite is a patch and moves nothing", nil, []step{
			payload(5), {delta: RewriteDelta(Header{HdrCursor: "1.9"}, nil), want: Patch},
		}, 5},
		{"after a termination everything is ignored", nil, []step{
			payload(5), {delta: TerminationDelta("done"), want: End},
			{delta: PayloadDelta(9, nil), want: Ignore},
			marker(Ignore),
			{delta: RewriteDelta(Header{HdrCursor: "1.9"}, nil), want: Ignore},
			{delta: TerminationDelta("again"), want: Ignore},
		}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stored := &Subscribe{Header: tc.stored}
			if tc.stored == nil {
				stored.Header = resumable
			}
			var r Recovery
			ended := false
			for i, s := range tc.steps {
				ended = ended || s.want == End
				if s.reopen == nil {
					if got := r.Step(&s.delta, stored); got != s.want {
						t.Fatalf("step %d: %v %q answered %d, want %d", i, s.delta.Type, s.delta.FlowDetail, got, s.want)
					}
					continue
				}
				sub := Subscribe{Header: s.reopen}
				r.Reopen(&sub)
				if len(sub.Header) != len(s.header) {
					t.Fatalf("step %d: reopened with %v, want %v", i, sub.Header, s.header)
				}
				for k, v := range s.header {
					if sub.Header[k] != v {
						t.Fatalf("step %d: reopened with %v, want %v", i, sub.Header, s.header)
					}
				}
			}
			if r.Seq() != tc.point {
				t.Fatalf("point = %d, want %d", r.Seq(), tc.point)
			}
			if r.Ended() != ended {
				t.Fatalf("Ended() = %v, want %v", r.Ended(), ended)
			}
		})
	}
}

// No sequence of steps makes Reopen raise a cursor: whatever a stream lived
// through, the request that reopens it claims at most what it claimed before,
// under the same epoch.
func TestRecoveryReopenNeverRaises(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	stored := &Subscribe{Header: Header{HdrCursor: "1.0"}}
	for round := 0; round < 2000; round++ {
		var r Recovery
		for n := rng.Intn(12); n > 0; n-- {
			var d Delta
			switch rng.Intn(6) {
			case 0:
				d = FlowStatusDelta(FlowDegraded, overload.ShedMarkerPrefix+"x")
			case 1:
				d = FlowStatusDelta(FlowRecovered, overload.RecoveredMarkerPrefix+"x")
			case 2:
				d = RewriteDelta(Header{HdrCursor: "3.99"}, nil)
			case 3:
				if rng.Intn(8) == 0 {
					d = TerminationDelta("done")
					break
				}
				fallthrough
			default:
				d = PayloadDelta(uint64(rng.Intn(40)), nil)
			}
			r.Step(&d, stored)
			if rng.Intn(5) == 0 {
				r.Reopen(&Subscribe{Header: Header{}})
			}
		}
		cur := durlog.Cursor{Epoch: uint64(rng.Intn(4)), Seq: uint64(rng.Intn(60))}
		sub := Subscribe{Header: Header{HdrCursor: cur.String()}}
		r.Reopen(&sub)
		got, ok := durlog.Parse(sub.Header[HdrCursor])
		if !ok {
			t.Fatalf("round %d: reopened with an unparsable cursor %v", round, sub.Header)
		}
		if got.Epoch != cur.Epoch || got.Seq != min(cur.Seq, r.Seq()) {
			t.Fatalf("round %d: Reopen turned cursor %v into %v, want seq min(claim %d, point %d)", round, cur, got, cur.Seq, r.Seq())
		}
	}
}
