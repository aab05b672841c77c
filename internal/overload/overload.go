// Package overload is Bladerunner's overload-control plane: the shared
// building blocks every hop uses to shed work explicitly instead of
// queueing unboundedly (paper §4: delivery is best-effort under overload,
// and the system "drops messages intelligently" while flow_status deltas
// tell every path participant what happened).
//
// Two primitives cover the pipeline:
//
//   - Queue: a bounded work queue with an explicit shed policy. Data items
//     (payload deltas, Pylon events) shed oldest-first when the queue is
//     full — a live view wants the freshest update, not the oldest — while
//     control items (flow_status, rewrite_request, stream lifecycle) are
//     NEVER dropped: losing a FlowRecovered or a rewrite would wedge the
//     client's view of the stream permanently, which is exactly the class
//     of bug this package exists to remove.
//   - TokenBucket / Admission: a token-bucket admission controller used at
//     Pylon publish and BRASS delivery. Its state round-trips through a
//     stream header (like brass.RateLimiter) so it survives BRASS failover
//     rewrites, and restoring is clamped to "now" so a skewed or corrupt
//     header from a failed host can never stall a stream into the future.
//
// Everything is stdlib-only and sim.Clock-driven: the same code runs under
// the wall clock and under the deterministic experiment harness.
package overload

import (
	"strconv"
	"time"
)

// Class labels a queued item's shed class.
type Class uint8

const (
	// Data items may be shed under overload (oldest first).
	Data Class = iota
	// Control items are never shed: flow_status, rewrite_request,
	// termination, and stream lifecycle work must always be delivered.
	Control
)

func (c Class) String() string {
	if c == Control {
		return "control"
	}
	return "data"
}

// ShedMarkerPrefix prefixes the FlowDetail of every FlowDegraded emitted
// because a hop shed data deltas. Devices use it to distinguish "the path
// is degraded, wait" from "deltas were dropped": on the latter a stream
// that holds a resume token reopens from its stored request and the
// serving BRASS replays what is missing (DESIGN.md §7c).
const ShedMarkerPrefix = "shed:"

// RecoveredMarkerPrefix prefixes the FlowDetail of the matching
// FlowRecovered once the hop leaves shedding. It is informational: the
// reopen its FlowDegraded triggered has already replaced the stream it
// arrives on.
const RecoveredMarkerPrefix = "shed-recovered:"

// IsShedMarker reports whether a flow_status detail string marks a shed
// episode (as opposed to a transport failure).
func IsShedMarker(detail string) bool {
	return len(detail) >= len(ShedMarkerPrefix) && detail[:len(ShedMarkerPrefix)] == ShedMarkerPrefix
}

// TokenBucket is a loop-owned (unsynchronized) token bucket: Rate tokens
// per second refill up to Burst. The zero value with Rate <= 0 admits
// everything. Use Admission for the concurrent form.
type TokenBucket struct {
	// Rate is the refill rate in tokens per second.
	Rate float64
	// Burst caps accumulated tokens. Values below 1 are treated as 1 so a
	// configured bucket can always admit something.
	Burst float64

	tokens float64
	last   time.Time
}

// burstCap returns the effective bucket capacity.
func (b *TokenBucket) burstCap() float64 {
	if b.Burst < 1 {
		return 1
	}
	return b.Burst
}

// refill advances the bucket to now. A zero last (fresh bucket) fills to
// capacity. A non-monotonic now — the clock retreated, e.g. after state
// was restored from a header written under a skewed clock — beyond one
// full refill interval resets last to now instead of stalling: tokens
// already accumulated are kept, future refills run from the earlier time.
func (b *TokenBucket) refill(now time.Time) {
	cap := b.burstCap()
	if b.last.IsZero() {
		b.tokens = cap
		b.last = now
		return
	}
	el := now.Sub(b.last)
	if el < 0 {
		// Tolerate clock retreat: never let a future-dated `last` freeze
		// the bucket. Small retreats (within one token of refill) keep the
		// old anchor; larger ones re-anchor at now.
		if b.Rate <= 0 || float64(-el)/float64(time.Second)*b.Rate > 1 {
			b.last = now
		}
		return
	}
	b.tokens += float64(el) / float64(time.Second) * b.Rate
	if b.tokens > cap {
		b.tokens = cap
	}
	b.last = now
}

// Allow consumes one token at time now, reporting whether the caller may
// proceed. Rate <= 0 disables the bucket (always allowed).
func (b *TokenBucket) Allow(now time.Time) bool {
	if b.Rate <= 0 {
		return true
	}
	b.refill(now)
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// Tokens returns the level the bucket would hold at time now, without
// consuming anything.
func (b *TokenBucket) Tokens(now time.Time) float64 {
	if b.Rate <= 0 {
		return b.burstCap()
	}
	b.refill(now)
	return b.tokens
}

// HeaderState encodes the bucket's admission state for persistence in a
// stream header: "<tokens-milli>@<last-unix-nano>".
func (b *TokenBucket) HeaderState() string {
	return strconv.FormatInt(int64(b.tokens*1000), 10) + "@" +
		strconv.FormatInt(b.last.UnixNano(), 10)
}

// RestoreHeaderState loads state written by HeaderState, clamping it to
// now: a `last` in the future (skewed or corrupt header from a failed
// host) is pulled back to now, and the token level is clamped to
// [0, Burst]. A malformed string leaves the bucket untouched.
func (b *TokenBucket) RestoreHeaderState(s string, now time.Time) {
	if s == "" {
		return
	}
	at := -1
	for i := 0; i < len(s); i++ {
		if s[i] == '@' {
			at = i
			break
		}
	}
	if at < 0 {
		return
	}
	milli, err1 := strconv.ParseInt(s[:at], 10, 64)
	ns, err2 := strconv.ParseInt(s[at+1:], 10, 64)
	if err1 != nil || err2 != nil || ns <= 0 {
		return
	}
	last := time.Unix(0, ns)
	if last.After(now) {
		last = now
	}
	tokens := float64(milli) / 1000
	if tokens < 0 {
		tokens = 0
	}
	if cap := b.burstCap(); tokens > cap {
		tokens = cap
	}
	b.tokens = tokens
	b.last = last
}
