package brass

import (
	"sort"
	"strconv"
	"time"

	"bladerunner/internal/trace"
)

// This file contains the small SDK of building blocks shared by BRASS
// applications: a token-style rate limiter whose state can be persisted in
// stream headers (so it survives BRASS failover via rewrites, paper §3.5
// "Resumption"), and the per-viewer ranked buffer LiveVideoComments uses.

// RateLimiter enforces a minimum interval between deliveries on a stream.
// It is loop-owned (no locking). Its state round-trips through a header
// field so a replacement BRASS resumes where the failed one left off.
type RateLimiter struct {
	Interval time.Duration
	last     time.Time
}

// Allow reports whether a delivery may happen at time now, consuming the
// slot when it returns true. Allow tolerates non-monotonic input: when now
// precedes the last delivery by more than one Interval — the clock
// retreated under it, e.g. state restored from a header written by a host
// with a skewed clock, or a virtual clock reset — the limiter re-anchors
// at now instead of denying until the original timeline catches up (which
// for a large Interval could stall the stream forever).
func (r *RateLimiter) Allow(now time.Time) bool {
	if r.Interval <= 0 {
		return true
	}
	if r.last.IsZero() || now.Sub(r.last) >= r.Interval || r.last.Sub(now) > r.Interval {
		r.last = now
		return true
	}
	return false
}

// HeaderState encodes the limiter state for a rewrite.
func (r *RateLimiter) HeaderState() string {
	return strconv.FormatInt(r.last.UnixNano(), 10)
}

// RestoreHeaderState loads limiter state stored by a previous BRASS,
// clamping it to now: a failed host's header can carry a `last` timestamp
// arbitrarily far in the future (clock skew, corruption), and restoring it
// verbatim would silence the stream until that wall time. After a clamped
// restore the next delivery is at most one Interval away.
func (r *RateLimiter) RestoreHeaderState(s string, now time.Time) {
	if s == "" {
		return
	}
	if ns, err := strconv.ParseInt(s, 10, 64); err == nil && ns > 0 {
		last := time.Unix(0, ns)
		if last.After(now) {
			last = now
		}
		r.last = last
	}
}

// HdrRateLimiterState is the header key used to persist limiter state.
const HdrRateLimiterState = "rate-limiter-state"

// RankedItem is one buffered update candidate.
type RankedItem struct {
	Score float64
	Time  time.Time
	Seq   uint64
	// Author is the originating event's author: a delivery rebuilt from the
	// buffer is privacy-checked against it like the event itself.
	Author uint64
	// Trace preserves the originating event's trace context across the
	// buffer, so a rate-limited delivery still closes its spans against
	// the mutation that produced it.
	Trace trace.ID
}

// RankedBuffer keeps the top-K candidates by score, discarding entries
// older than TTL at Pop time. LiveVideoComments holds one per stream: new
// comments are inserted after per-viewer filtering, and the highest-ranked
// one is popped at the rate limit (paper §3.4).
type RankedBuffer struct {
	K   int
	TTL time.Duration

	items []RankedItem
}

// Add inserts a candidate, evicting the lowest-scored item if the buffer
// exceeds K.
func (b *RankedBuffer) Add(item RankedItem) {
	b.items = append(b.items, item)
	sort.SliceStable(b.items, func(i, j int) bool { return b.items[i].Score > b.items[j].Score })
	if b.K > 0 && len(b.items) > b.K {
		b.items = b.items[:b.K]
	}
}

// Pop removes and returns the highest-ranked item that is still fresh at
// time now. Stale items are discarded. ok is false if nothing remains.
func (b *RankedBuffer) Pop(now time.Time) (RankedItem, bool) {
	for len(b.items) > 0 {
		item := b.items[0]
		b.items = b.items[1:]
		if b.TTL > 0 && now.Sub(item.Time) > b.TTL {
			continue // comment went stale; irrelevant to the viewer now
		}
		return item, true
	}
	return RankedItem{}, false
}

// Expire drops all stale items without popping.
func (b *RankedBuffer) Expire(now time.Time) {
	if b.TTL <= 0 {
		return
	}
	kept := b.items[:0]
	for _, item := range b.items {
		if now.Sub(item.Time) <= b.TTL {
			kept = append(kept, item)
		}
	}
	b.items = kept
}
