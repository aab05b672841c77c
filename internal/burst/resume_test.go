package burst

import (
	"math/rand"
	"strconv"
	"testing"

	"bladerunner/internal/durlog"
	"bladerunner/internal/overload"
)

// The rule both device models hold a Recovery for, stated once: what every
// kind of delta makes the holder do, how the resume point follows the
// payloads of the current incarnation up to the first repairable shed marker,
// and that a reopen lowers the request's resume tokens to it, never raises
// them.
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
		{"an over-claim of both tokens is lowered", nil, []step{
			payload(5), marker(Reopen), payload(9),
			reopen(Header{HdrResumeSeq: "9", HdrCursor: "1.9", HdrApp: "messenger"},
				Header{HdrResumeSeq: "5", HdrCursor: "1.5", HdrApp: "messenger"}),
		}, 5},
		{"an honest lower token is untouched", nil, []step{
			payload(5),
			reopen(Header{HdrResumeSeq: "3", HdrCursor: "2.4"}, Header{HdrResumeSeq: "3", HdrCursor: "2.4"}),
		}, 5},
		{"sentinels and malformed values pass through", nil, []step{
			payload(5),
			reopen(Header{HdrCursor: "earliest"}, Header{HdrCursor: "earliest"}),
			reopen(Header{HdrCursor: "live", HdrResumeSeq: "many"}, Header{HdrCursor: "live", HdrResumeSeq: "many"}),
		}, 5},
		{"a request without tokens gains none", nil, []step{
			payload(5), reopen(Header{HdrApp: "typing"}, Header{HdrApp: "typing"}),
		}, 5},
		{"after Reopen the point advances again", nil, []step{
			payload(5), marker(Reopen), payload(9),
			reopen(Header{HdrResumeSeq: "9"}, Header{HdrResumeSeq: "5"}),
			payload(6), payload(7),
		}, 7},
		{"a marker without a resume token only surfaces", Header{HdrApp: "typing"}, []step{
			payload(5), marker(Surface), payload(9),
		}, 9},
		{"a resume-seq alone makes a marker repairable", Header{HdrResumeSeq: "2"}, []step{
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
			{delta: FlowStatusDelta(FlowDegraded, SessionClosedDetail), want: Surface},
			{delta: FlowStatusDelta(FlowRerouted, "failover"), want: Surface},
			payload(6),
		}, 6},
		{"a rewrite is a patch and moves nothing", nil, []step{
			payload(5), {delta: RewriteDelta(Header{HdrResumeSeq: "9", HdrCursor: "1.9"}, nil), want: Patch},
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

// No sequence of steps makes Reopen raise a token: whatever a stream lived
// through, the request that reopens it claims at most what it claimed before.
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
				d = RewriteDelta(Header{HdrResumeSeq: "99"}, nil)
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
		seq, cur := uint64(rng.Intn(60)), durlog.Cursor{Epoch: 3, Seq: uint64(rng.Intn(60))}
		sub := Subscribe{Header: Header{HdrResumeSeq: strconv.FormatUint(seq, 10), HdrCursor: cur.String()}}
		r.Reopen(&sub)
		gotSeq, err := strconv.ParseUint(sub.Header[HdrResumeSeq], 10, 64)
		gotCur, ok := durlog.Parse(sub.Header[HdrCursor])
		if err != nil || !ok {
			t.Fatalf("round %d: reopened with unparsable tokens %v", round, sub.Header)
		}
		if gotSeq > seq || gotCur.Seq > cur.Seq || gotCur.Epoch != cur.Epoch {
			t.Fatalf("round %d: Reopen raised a token: resume-seq %d -> %d, cursor %v -> %v", round, seq, gotSeq, cur, gotCur)
		}
		if gotSeq != min(seq, r.Seq()) {
			t.Fatalf("round %d: resume-seq = %d, want min(claim %d, point %d)", round, gotSeq, seq, r.Seq())
		}
	}
}
