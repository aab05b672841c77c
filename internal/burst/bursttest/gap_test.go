package bursttest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// fatal stands in for a test: Fatalf records the failure and ends the
// goroutine, as testing's does.
type fatal struct {
	testing.TB
	msg string
}

func (f *fatal) Helper() {}

func (f *fatal) Fatalf(format string, args ...any) {
	f.msg = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

// TestGapRule plays one script per clause of the rule and checks its verdict.
func TestGapRule(t *testing.T) {
	const shed, recovered = "shed:leg", "shed-recovered:leg"
	for _, tc := range []struct {
		name   string
		script func(r *GapRule)
		fails  string // in the failure, or "" if the script passes
	}{
		{"a gap inside an open episode passes", func(r *GapRule) {
			r.Payload(1)
			r.Flow(shed)
			r.Payload(4)
			r.Flow("pressure")
			r.Flow(recovered)
			r.Payload(5)
		}, ""},
		{"an episode opened and closed between the payloads around a gap passes", func(r *GapRule) {
			r.Payload(1)
			r.Flow(shed)
			r.Flow(recovered)
			r.Payload(5)
		}, ""},
		{"an unannounced gap fails", func(r *GapRule) {
			r.Payload(1)
			r.Flow(shed)
			r.Flow(recovered)
			r.Payload(2)
			r.Payload(4)
		}, "payload 4 after 2 outside"},
		{"a recovery with no marker fails", func(r *GapRule) {
			r.Payload(1)
			r.Flow(recovered)
		}, "with no shed episode open"},
		{"an episode left open at close fails", func(r *GapRule) {
			r.Flow(shed)
			r.Payload(3)
		}, "1 shed episodes still open"},
		{"a payload missing when something sent after it arrives fails", func(r *GapRule) {
			r.Payload(1)
			r.SentAfter(1)
			r.SentAfter(2)
			r.Payload(3)
		}, "payload 2 missing after payload 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fatal{TB: t}
			done := make(chan struct{})
			go func() {
				defer close(done)
				r := NewGapRule(f)
				tc.script(r)
				r.Close()
			}()
			<-done
			if tc.fails == "" && f.msg != "" {
				t.Errorf("failed: %s", f.msg)
			}
			if tc.fails != "" && !strings.Contains(f.msg, tc.fails) {
				t.Errorf("failure %q, want one containing %q", f.msg, tc.fails)
			}
		})
	}
}
