package brass

import (
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

var sdkT0 = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

// quickCount sizes the property-test sample: full depth normally, a fast
// smoke pass under -short (the CI race job runs with -short).
func quickCount(t *testing.T) int {
	if testing.Short() {
		return 30
	}
	return 300
}

// Property: the ranked buffer never holds more than K items, and popping
// everything yields non-increasing scores (fresh items only).
func TestRankedBufferOrderProperty(t *testing.T) {
	f := func(scores []uint16, k uint8) bool {
		kk := int(k%8) + 1
		b := RankedBuffer{K: kk, TTL: time.Hour}
		for _, s := range scores {
			b.Add(RankedItem{Score: float64(s), Time: sdkT0})
			if len(b.items) > kk {
				return false
			}
		}
		prev := 1e18
		now := sdkT0.Add(time.Minute)
		for {
			item, ok := b.Pop(now)
			if !ok {
				break
			}
			if item.Score > prev {
				return false
			}
			prev = item.Score
		}
		return len(b.items) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount(t)}); err != nil {
		t.Error(err)
	}
}

// Property: the buffer keeps the top-K scores — anything popped beats
// everything that was evicted.
func TestRankedBufferKeepsTopKProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		const k = 3
		b := RankedBuffer{K: k, TTL: time.Hour}
		for _, s := range raw {
			b.Add(RankedItem{Score: float64(s), Time: sdkT0})
		}
		// Compute the true top-k multiset.
		sorted := append([]uint16(nil), raw...)
		for i := 0; i < len(sorted); i++ {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] > sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		want := sorted
		if len(want) > k {
			want = want[:k]
		}
		now := sdkT0.Add(time.Minute)
		for _, w := range want {
			item, ok := b.Pop(now)
			if !ok || item.Score != float64(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount(t)}); err != nil {
		t.Error(err)
	}
}

// Property: a rate limiter allows at most ceil(window/interval)+1 events in
// any burst of attempts inside a window.
func TestRateLimiterBoundProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		r := RateLimiter{Interval: time.Second}
		allowed := 0
		// Sorted attempt times within the window.
		times := make([]time.Time, len(offsets))
		for i, off := range offsets {
			times[i] = sdkT0.Add(time.Duration(int(off)%10000) * time.Millisecond)
		}
		for i := 0; i < len(times); i++ {
			for j := i + 1; j < len(times); j++ {
				if times[j].Before(times[i]) {
					times[i], times[j] = times[j], times[i]
				}
			}
		}
		for _, at := range times {
			if r.Allow(at) {
				allowed++
			}
		}
		return allowed <= 11 // 10s window at 1/s, +1 for the boundary
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount(t)}); err != nil {
		t.Error(err)
	}
}

// Property: the limiter's stall is bounded under non-monotonic clocks.
// For ANY sequence of attempt times — forwards, backwards, wildly skewed —
// a denied attempt retried two Intervals later always succeeds. The pre-fix
// Allow violated this: a clock retreat left `last` in the attempt's future,
// and with a large Interval the limiter denied until the original timeline
// caught up (potentially forever).
func TestRateLimiterNonMonotonicBoundedStallProperty(t *testing.T) {
	const iv = time.Minute
	f := func(offsets []int32) bool {
		r := RateLimiter{Interval: iv}
		for _, off := range offsets {
			at := sdkT0.Add(time.Duration(off) * time.Second)
			if r.Allow(at) {
				continue
			}
			// Bounded stall: whatever state the sequence produced, the
			// limiter must grant within two Intervals of the denial.
			if !r.Allow(at.Add(2 * iv)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount(t)}); err != nil {
		t.Error(err)
	}
}

// Property: restoring ANY header state (including future-dated or corrupt
// values) never stalls the stream by more than one Interval: an attempt one
// Interval after the restore point always succeeds.
func TestRateLimiterRestoreNeverStallsProperty(t *testing.T) {
	const iv = 5 * time.Minute
	f := func(ns int64) bool {
		r := RateLimiter{Interval: iv}
		r.RestoreHeaderState(strconv.FormatInt(ns, 10), sdkT0)
		return r.Allow(sdkT0.Add(iv))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount(t)}); err != nil {
		t.Error(err)
	}
}
