package burst

import "testing"

// The rule both device models hold a ResumePoint for: it follows the
// payloads of the current incarnation up to the first shed marker, and a
// reopen lowers the request's resume tokens to it, never raises them.
func TestResumePoint(t *testing.T) {
	type step struct {
		payload uint64 // Payload(payload) when non-zero
		shed    bool   // Shed()
		reopen  Header // Reopen(&Subscribe{Header: reopen}) when non-nil
		want    Header // the header after that Reopen
	}
	cases := []struct {
		name  string
		steps []step
		point uint64
	}{
		{"in-order payloads advance", []step{{payload: 1}, {payload: 2}, {payload: 3}}, 3},
		{"a duplicate does not retreat", []step{{payload: 4}, {payload: 2}}, 4},
		{"marker then isolated later payload does not", []step{{payload: 5}, {shed: true}, {payload: 9}}, 5},
		{"an over-claim of both tokens is lowered", []step{
			{payload: 5}, {shed: true}, {payload: 9},
			{reopen: Header{HdrResumeSeq: "9", HdrCursor: "1.9", HdrApp: "messenger"},
				want: Header{HdrResumeSeq: "5", HdrCursor: "1.5", HdrApp: "messenger"}},
		}, 5},
		{"an honest lower token is untouched", []step{
			{payload: 5},
			{reopen: Header{HdrResumeSeq: "3", HdrCursor: "2.4"}, want: Header{HdrResumeSeq: "3", HdrCursor: "2.4"}},
		}, 5},
		{"sentinels and malformed values pass through", []step{
			{payload: 5},
			{reopen: Header{HdrCursor: "earliest"}, want: Header{HdrCursor: "earliest"}},
			{reopen: Header{HdrCursor: "live", HdrResumeSeq: "many"}, want: Header{HdrCursor: "live", HdrResumeSeq: "many"}},
		}, 5},
		{"a request without tokens gains none", []step{
			{payload: 5}, {reopen: Header{HdrApp: "typing"}, want: Header{HdrApp: "typing"}},
		}, 5},
		{"after Reopen the point advances again", []step{
			{payload: 5}, {shed: true}, {payload: 9},
			{reopen: Header{HdrResumeSeq: "9"}, want: Header{HdrResumeSeq: "5"}},
			{payload: 6}, {payload: 7},
		}, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p ResumePoint
			for i, s := range tc.steps {
				switch {
				case s.payload != 0:
					p.Payload(s.payload)
				case s.shed:
					p.Shed()
				default:
					sub := Subscribe{Header: s.reopen}
					p.Reopen(&sub)
					if len(sub.Header) != len(s.want) {
						t.Fatalf("step %d: reopened with %v, want %v", i, sub.Header, s.want)
					}
					for k, v := range s.want {
						if sub.Header[k] != v {
							t.Fatalf("step %d: reopened with %v, want %v", i, sub.Header, s.want)
						}
					}
				}
			}
			if p.Seq() != tc.point {
				t.Fatalf("point = %d, want %d", p.Seq(), tc.point)
			}
		})
	}
}
