package bursttest

import (
	"strings"
	"testing"

	"bladerunner/internal/overload"
)

// GapRule checks the announced-shed contract (DESIGN.md §7c): every payload
// a hop sheds lies inside a shed episode, opened by a flow status whose
// detail is a shed marker and closed by its shed-recovered marker. A test
// feeds it, in order, each payload seq and each flow-status detail it reads
// from one stream, and fails the test on the first violation, so it is used
// on the test's own goroutine. The first payload is expected to be seq 1.
type GapRule struct {
	t         testing.TB
	last      uint64 // the last payload's seq
	open      int    // episodes announced and not yet recovered
	announced bool   // an episode was open at some point since the last payload
	episodes  int    // episodes announced
}

// NewGapRule returns a rule that fails t.
func NewGapRule(t testing.TB) *GapRule { return &GapRule{t: t} }

// Payload judges the payload seq. A gap — any seq but the last one's
// successor — must lie in a shed episode: one open at some point since the
// last payload. A hop queues its recovery marker behind the payloads it kept,
// so the whole episode may have opened and closed between the two.
func (r *GapRule) Payload(seq uint64) {
	r.t.Helper()
	if seq != r.last+1 && !r.announced {
		r.t.Fatalf("payload %d after %d outside a shed episode's markers", seq, r.last)
	}
	r.last, r.announced = seq, r.open > 0
}

// Flow reads a flow-status detail: a shed marker opens an episode, a
// shed-recovered marker closes one, and any other detail is not the rule's.
func (r *GapRule) Flow(detail string) {
	r.t.Helper()
	switch {
	case overload.IsShedMarker(detail):
		r.open++
		r.episodes++
		r.announced = true
	case strings.HasPrefix(detail, overload.RecoveredMarkerPrefix):
		if r.open == 0 {
			r.t.Fatalf("%q after payload %d with no shed episode open", detail, r.last)
		}
		r.open--
	}
}

// SentAfter tells the rule that something sent after payload seq has arrived,
// so seq, if it has not, is missing now: that must lie in a shed episode too.
func (r *GapRule) SentAfter(seq uint64) {
	r.t.Helper()
	if r.last < seq && !r.announced {
		r.t.Fatalf("payload %d missing after payload %d, outside a shed episode's markers", seq, r.last)
	}
}

// Close fails the test if an episode is still open. The test calls it once
// it has read all the stream will hand out for now; it may go on feeding the
// rule after.
func (r *GapRule) Close() {
	r.t.Helper()
	if r.open > 0 {
		r.t.Fatalf("%d shed episodes still open after payload %d", r.open, r.last)
	}
}

// Open reports whether a shed episode is open.
func (r *GapRule) Open() bool { return r.open > 0 }

// Last returns the last payload's seq, 0 before the first.
func (r *GapRule) Last() uint64 { return r.last }

// Episodes returns how many shed episodes have been announced.
func (r *GapRule) Episodes() int { return r.episodes }
