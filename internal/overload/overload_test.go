package overload

import (
	"testing"
	"time"
)

var t0 = time.Date(2021, 10, 26, 0, 0, 0, 0, time.UTC)

func TestTokenBucketRefill(t *testing.T) {
	b := TokenBucket{Rate: 10, Burst: 5}
	// Fresh bucket fills to capacity.
	for i := 0; i < 5; i++ {
		if !b.Allow(t0) {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if b.Allow(t0) {
		t.Fatal("bucket should be empty")
	}
	// 100ms at 10 tokens/s refills exactly one token.
	if !b.Allow(t0.Add(100 * time.Millisecond)) {
		t.Fatal("refilled token denied")
	}
	if b.Allow(t0.Add(100 * time.Millisecond)) {
		t.Fatal("second token should not exist yet")
	}
	// Refill never exceeds Burst.
	b.refill(t0.Add(time.Hour))
	if b.tokens != 5 {
		t.Fatalf("tokens after long idle = %v, want burst cap 5", b.tokens)
	}
}

func TestTokenBucketDisabled(t *testing.T) {
	var b TokenBucket
	for i := 0; i < 1000; i++ {
		if !b.Allow(t0) {
			t.Fatal("disabled bucket must always allow")
		}
	}
}

func TestTokenBucketHeaderStateRoundTrip(t *testing.T) {
	b := TokenBucket{Rate: 10, Burst: 5}
	for i := 0; i < 4; i++ {
		b.Allow(t0)
	}
	s := b.HeaderState()

	var r TokenBucket
	r.Rate, r.Burst = 10, 5
	r.RestoreHeaderState(s, t0)
	r.refill(t0)
	b.refill(t0)
	if got, want := r.tokens, b.tokens; got != want {
		t.Fatalf("restored tokens = %v, want %v", got, want)
	}
	// One token left: exactly one more Allow at t0.
	if !r.Allow(t0) || r.Allow(t0) {
		t.Fatal("restored bucket admits wrong count")
	}
}

// TestTokenBucketRestoreClampsFuture is the admission-controller twin of
// the RateLimiter clamp bug: a header persisted under a skewed clock dates
// `last` into the future; restoring must clamp to now so the stream does
// not stall until that wall time.
func TestTokenBucketRestoreClampsFuture(t *testing.T) {
	future := TokenBucket{Rate: 1, Burst: 1}
	future.tokens = 0
	future.last = t0.Add(24 * time.Hour).UnixNano()
	s := future.HeaderState()

	r := TokenBucket{Rate: 1, Burst: 1}
	r.RestoreHeaderState(s, t0)
	// Clamped to t0 with zero tokens: one refill interval away, not a day.
	if r.Allow(t0) {
		t.Fatal("no token should be available immediately after restore")
	}
	if !r.Allow(t0.Add(time.Second)) {
		t.Fatal("bucket still stalled one refill interval after restore: future last not clamped")
	}
}

func TestTokenBucketNonMonotonicNow(t *testing.T) {
	b := TokenBucket{Rate: 1, Burst: 1}
	if !b.Allow(t0) {
		t.Fatal("initial token denied")
	}
	// Clock retreats far beyond one refill interval: the bucket re-anchors
	// at the earlier now instead of waiting for the original timeline.
	back := t0.Add(-time.Hour)
	b.Allow(back)
	if !b.Allow(back.Add(time.Second)) {
		t.Fatal("bucket stalled after clock retreat")
	}
}

func TestTokenBucketRestoreMalformed(t *testing.T) {
	for _, s := range []string{"", "garbage", "12", "@", "x@y", "100@-5", "100@0"} {
		b := TokenBucket{Rate: 10, Burst: 5}
		b.Allow(t0) // establish real state
		before := b.tokens
		b.RestoreHeaderState(s, t0)
		if b.tokens != before {
			t.Fatalf("malformed state %q mutated the bucket", s)
		}
	}
}

func TestQueueFIFOAndBound(t *testing.T) {
	q := NewQueue[int](4)
	for i := 1; i <= 4; i++ {
		if shed := q.Push(i, Data); shed != 0 {
			t.Fatalf("push %d shed %d items under capacity", i, shed)
		}
	}
	// Fifth push sheds the OLDEST data item (1), keeping the freshest.
	if shed := q.Push(5, Data); shed != 1 {
		t.Fatalf("push over capacity shed %d items, want 1", shed)
	}
	want := []int{2, 3, 4, 5}
	for _, w := range want {
		v, class, ok := q.Pop()
		if !ok || v != w || class != Data {
			t.Fatalf("pop = (%d,%v,%v), want (%d,data,true)", v, class, ok, w)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("queue should be empty")
	}
	if q.ShedData.Value() != 1 {
		t.Fatalf("ShedData = %d, want 1", q.ShedData.Value())
	}
}

func TestQueueNeverShedsControl(t *testing.T) {
	q := NewQueue[int](2)
	q.Push(1, Control)
	q.Push(2, Control)
	// Full of control: the bound is exceeded rather than dropping any.
	if shed := q.Push(3, Control); shed != 0 {
		t.Fatal("control item was shed")
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d, want 3 (bound exceeded to keep control)", q.Len())
	}
	// A data push at capacity with only control queued also keeps all.
	if shed := q.Push(4, Data); shed != 0 {
		t.Fatal("shed reported with no data to shed")
	}
	// Mixed: now a push sheds the data item, not older control items.
	if shed := q.Push(5, Data); shed != 1 {
		t.Fatal("expected the lone data item to shed")
	}
	var classes []Class
	for {
		_, c, ok := q.Pop()
		if !ok {
			break
		}
		classes = append(classes, c)
	}
	if len(classes) != 4 || classes[0] != Control || classes[1] != Control || classes[2] != Control || classes[3] != Data {
		t.Fatalf("drain order/classes wrong: %v", classes)
	}
}

func TestQueueDegradedRecoveredTransitions(t *testing.T) {
	q := NewQueue[int](4)
	var degraded, recovered int
	q.OnDegraded = func() { degraded++ }
	q.OnRecovered = func() { recovered++ }

	for i := 0; i < 4; i++ {
		q.Push(i, Data)
	}
	q.Push(4, Data) // first shed: enter shedding
	q.Push(5, Data) // still shedding: no second signal
	if degraded != 1 || !q.Shedding() {
		t.Fatalf("degraded=%d shedding=%v, want 1/true", degraded, q.Shedding())
	}
	// Drain to half capacity: leave shedding.
	q.Pop()
	q.Pop()
	if recovered != 1 || q.Shedding() {
		t.Fatalf("recovered=%d shedding=%v, want 1/false", recovered, q.Shedding())
	}
	if q.Degraded.Value() != 1 || q.Recovered.Value() != 1 {
		t.Fatalf("transition counters %d/%d, want 1/1", q.Degraded.Value(), q.Recovered.Value())
	}
}

func TestQueueReadyWakeup(t *testing.T) {
	q := NewQueue[int](0) // unbounded
	for i := 0; i < 100; i++ {
		q.Push(i, Data)
	}
	// However many tokens coalesced, one drain pass sees every item.
	got := 0
	<-q.Ready()
	for {
		_, _, ok := q.Pop()
		if !ok {
			break
		}
		got++
	}
	if got != 100 {
		t.Fatalf("drained %d items, want 100", got)
	}
	if q.ShedData.Value() != 0 || q.Shedding() {
		t.Fatal("unbounded queue must never shed")
	}
}

func TestShedMarker(t *testing.T) {
	if !IsShedMarker(ShedMarkerPrefix + "brass-loop") {
		t.Fatal("shed marker not detected")
	}
	for _, s := range []string{"", "upstream lost", RecoveredMarkerPrefix + "x"} {
		if IsShedMarker(s) {
			t.Fatalf("%q misdetected as shed marker", s)
		}
	}
}
