package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(t0)
	var got []int
	e.After(30*time.Millisecond, func() { got = append(got, 3) })
	e.After(10*time.Millisecond, func() { got = append(got, 1) })
	e.After(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != t0.Add(30*time.Millisecond) {
		t.Errorf("Now = %v, want %v", e.Now(), t0.Add(30*time.Millisecond))
	}
}

func TestEngineFIFOForEqualTimestamps(t *testing.T) {
	e := NewEngine(t0)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(t0)
	ran := false
	cancel := e.After(time.Second, func() { ran = true })
	cancel()
	cancel() // idempotent
	e.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", e.Pending())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(t0)
	var times []time.Duration
	e.After(time.Second, func() {
		times = append(times, e.Now().Sub(t0))
		e.After(time.Second, func() {
			times = append(times, e.Now().Sub(t0))
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Errorf("nested times = %v", times)
	}
}

func TestEngineRunUntilLeavesFutureEvents(t *testing.T) {
	e := NewEngine(t0)
	var count int
	for i := 1; i <= 10; i++ {
		e.After(time.Duration(i)*time.Minute, func() { count++ })
	}
	e.RunUntil(t0.Add(5 * time.Minute))
	if count != 5 {
		t.Errorf("events before deadline = %d, want 5", count)
	}
	if e.Pending() != 5 {
		t.Errorf("Pending = %d, want 5", e.Pending())
	}
	if e.Now() != t0.Add(5*time.Minute) {
		t.Errorf("Now = %v", e.Now())
	}
	e.Run()
	if count != 10 {
		t.Errorf("total events = %d, want 10", count)
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine(t0)
	e.RunUntil(e.Now().Add(time.Hour))
	if e.Now() != t0.Add(time.Hour) {
		t.Errorf("Now = %v, want +1h", e.Now())
	}
}

func TestEnginePastSchedulingClampsToNow(t *testing.T) {
	e := NewEngine(t0)
	var at time.Time
	e.At(t0.Add(-time.Hour), func() { at = e.Now() })
	e.Run()
	if at != t0 {
		t.Errorf("past event ran at %v, want %v", at, t0)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		e := NewEngine(t0)
		rng := rand.New(rand.NewSource(seed))
		var out []time.Duration
		var spawn func(depth int)
		spawn = func(depth int) {
			out = append(out, e.Now().Sub(t0))
			if depth < 3 {
				for i := 0; i < 3; i++ {
					d := time.Duration(rng.Intn(1000)) * time.Millisecond
					e.After(d, func() { spawn(depth + 1) })
				}
			}
		}
		e.After(0, func() { spawn(0) })
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestManualClock(t *testing.T) {
	c := NewManualClock(t0)
	if c.Now() != t0 {
		t.Fatal("initial time wrong")
	}
	c.Advance(90 * time.Second)
	if c.Now() != t0.Add(90*time.Second) {
		t.Errorf("Advance: Now = %v", c.Now())
	}
	c.Set(t0)
	if c.Now() != t0 {
		t.Errorf("Set: Now = %v", c.Now())
	}
}

func TestRealClockAfter(t *testing.T) {
	done := make(chan struct{})
	RealClock{}.After(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RealClock.After never fired")
	}
}

func TestRealClockCancel(t *testing.T) {
	fired := make(chan struct{}, 1)
	cancel := RealClock{}.After(50*time.Millisecond, func() { fired <- struct{}{} })
	cancel()
	select {
	case <-fired:
		t.Fatal("cancelled timer fired")
	case <-time.After(150 * time.Millisecond):
	}
}

// Property: events always execute in non-decreasing time order regardless of
// the insertion pattern.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(t0)
		var prev time.Time
		ok := true
		for _, d := range delays {
			e.After(time.Duration(d)*time.Millisecond, func() {
				if e.Now().Before(prev) {
					ok = false
				}
				prev = e.Now()
			})
		}
		e.Run()
		return ok && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCancelFuncReleasesEvent asserts that an invoked cancel func retains
// no reference to its event: the captured state must be collectable even
// while the cancel funcs themselves stay alive (devices hold reconnect /
// keepalive cancels for their whole lifetime). Regression test for the
// retained-event leak: pre-fix, each held cancel pinned its 48-byte event
// struct forever, which at a million devices is tens of megabytes.
func TestCancelFuncReleasesEvent(t *testing.T) {
	const n = 200_000
	e := NewEngine(t0)
	cancels := make([]func(), 0, n)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	for i := 0; i < n; i++ {
		cancels = append(cancels, e.After(time.Duration(i)*time.Microsecond, func() {}))
	}
	// Half fire, half are cancelled; every cancel func is then invoked and
	// RETAINED — only the events may be collected.
	for _, c := range cancels[n/2:] {
		c()
	}
	e.Run()
	for _, c := range cancels[:n/2] {
		c()
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cancels)

	// The cancel closures themselves (retained on purpose) cost ~6.5 MB;
	// n pinned events would add ~16 MB on top (64-byte structs with an
	// embedded time.Time). The threshold sits between the two so the test
	// fails if events (or the drained heap array) are ever pinned again.
	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if delta > 9<<20 {
		t.Fatalf("invoked cancel funcs retain too much memory: %d bytes live for %d events", delta, n)
	}
}

// TestCancelIdempotentAfterFire: cancelling after the event ran must be a
// no-op (and must not disturb other pending events).
func TestCancelIdempotentAfterFire(t *testing.T) {
	e := NewEngine(t0)
	ran := 0
	c := e.After(time.Millisecond, func() { ran++ })
	e.After(2*time.Millisecond, func() { ran++ })
	e.Run()
	c()
	c()
	if ran != 2 || e.Pending() != 0 {
		t.Fatalf("ran=%d pending=%d, want 2/0", ran, e.Pending())
	}
}

// TestQueueShrinksAfterDrain: the heap's backing array must not stay at
// burst capacity after the burst drains.
func TestQueueShrinksAfterDrain(t *testing.T) {
	const n = 1 << 20
	e := NewEngine(t0)
	for i := 0; i < n; i++ {
		e.After(time.Duration(i)*time.Microsecond, func() {})
	}
	peak := cap(e.queue)
	if peak < n {
		t.Fatalf("backing array smaller than burst: %d < %d", peak, n)
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Run", e.Pending())
	}
	if c := cap(e.queue); c > peak/64 {
		t.Fatalf("drained queue still holds cap %d (peak %d); backing array never shrank", c, peak)
	}
	// The engine must keep working after shrinks.
	ran := false
	e.After(time.Millisecond, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("event scheduled after shrink did not run")
	}
}
