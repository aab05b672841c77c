package faults

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"bladerunner/internal/edge"
	"bladerunner/internal/sim"
)

func TestBackoffPolicyDefaults(t *testing.T) {
	p := BackoffPolicy{}.Normalized()
	if p.Base != 50*time.Millisecond || p.Max != 32*p.Base || p.Multiplier != 2 || p.Jitter != 0.5 {
		t.Errorf("defaults = %+v", p)
	}
	fixed := BackoffPolicy{NoJitter: true}.Normalized()
	if fixed.Jitter != 0 {
		t.Errorf("NoJitter policy kept jitter %v", fixed.Jitter)
	}
	if s := (BackoffPolicy{}).String(); !strings.Contains(s, "base=50ms") {
		t.Errorf("String() = %q", s)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		b := NewBackoff(BackoffPolicy{}, seed)
		out := make([]time.Duration, 10)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical jitter")
	}
}

func TestBackoffGrowthSaturationReset(t *testing.T) {
	b := NewBackoff(BackoffPolicy{
		Base: 10 * time.Millisecond, Max: 80 * time.Millisecond,
		Multiplier: 2, NoJitter: true,
	}, 1)
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.Next(); got != w*time.Millisecond {
			t.Errorf("attempt %d = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	b.Reset()
	if b.attempt != 0 {
		t.Errorf("attempt after reset = %d", b.attempt)
	}
	if got := b.Next(); got != 10*time.Millisecond {
		t.Errorf("post-reset delay = %v", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	base := 100 * time.Millisecond
	b := NewBackoff(BackoffPolicy{Base: base, Multiplier: 1, Jitter: 0.5}, 3)
	for i := 0; i < 200; i++ {
		d := b.Next()
		if d < base/2 || d > 3*base/2 {
			t.Fatalf("delay %v outside [%v, %v]", d, base/2, 3*base/2)
		}
	}
}

// fixedSource makes a rand.Rand's Float64 return one value, u = s / 2^63.
type fixedSource int64

func (s fixedSource) Int63() int64 { return int64(s) }
func (fixedSource) Seed(int64)     {}

// Backoff.Next is BackoffPolicy.Delay fed the attempt counter and the RNG —
// nothing else — so whoever calls Delay with the same (attempt, u) waits the
// same time and saturates at the same attempt (megadevice's stateless
// per-device jitter does: TestBackoffDelayIsTheOneFormula there).
func TestBackoffNextIsDelay(t *testing.T) {
	policies := []BackoffPolicy{
		{}, // all defaults
		{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, NoJitter: true},
		{Base: 100 * time.Millisecond, Max: 10 * time.Millisecond}, // Max < Base: clamped up to Base
		{Base: 20 * time.Millisecond, Multiplier: 1, Jitter: 1},
	}
	for _, p := range policies {
		for _, frac := range []int64{0, 1 << 61, 1<<63 - 1<<10} {
			u := float64(frac) / (1 << 63)
			b := NewBackoff(p, 1)
			b.rng = rand.New(fixedSource(frac))
			for attempt := 0; attempt <= 40; attempt++ {
				want := p.Normalized().Delay(attempt, u)
				if got := b.Next(); got != want {
					t.Fatalf("%v attempt %d u %v: Next = %v, Delay = %v", p, attempt, u, got, want)
				}
				n := p.Normalized()
				if lo, hi := float64(n.Base)*(1-n.Jitter), float64(n.Max)*(1+n.Jitter); float64(want) < lo-1 || float64(want) > hi {
					t.Fatalf("%v attempt %d u %v: %v outside [%v, %v]", p, attempt, u, want, time.Duration(lo), time.Duration(hi))
				}
			}
		}
	}
	if p := (BackoffPolicy{Jitter: -1}).Normalized(); p != p.Normalized() {
		t.Errorf("Normalized is not idempotent: %+v then %+v", p, p.Normalized())
	}
}

func TestBackoffChildSharesCounters(t *testing.T) {
	parent := NewBackoff(BackoffPolicy{Base: time.Millisecond}, 5)
	c1, c2 := parent.Child(1), parent.Child(2)
	c1.Next()
	c1.Next()
	c2.Next()
	if c1.attempt != 2 || c2.attempt != 1 || parent.attempt != 0 {
		t.Errorf("attempts = %d/%d/%d, want 2/1/0",
			c1.attempt, c2.attempt, parent.attempt)
	}
	// Children derived from the same seed+salt replay identically.
	p2 := NewBackoff(BackoffPolicy{Base: time.Millisecond}, 5)
	d1, d2 := p2.Child(1), NewBackoff(BackoffPolicy{Base: time.Millisecond}, 5).Child(1)
	for i := 0; i < 5; i++ {
		if a, b := d1.Next(), d2.Next(); a != b {
			t.Fatalf("child replay diverged at %d: %v vs %v", i, a, b)
		}
	}
}

// echoNetwork registers target with an echo server: every byte written by
// the dialer comes straight back.
func echoNetwork(t *testing.T, target string) *FaultNetwork {
	t.Helper()
	fn := NewFaultNetwork(edge.NewPipeNetwork(), nil)
	fn.Register(target, func(rwc io.ReadWriteCloser) {
		go func() {
			_, _ = io.Copy(rwc, rwc)
			_ = rwc.Close()
		}()
	})
	return fn
}

func TestFaultNetworkPassthrough(t *testing.T) {
	fn := echoNetwork(t, "pop")
	c, err := fn.Dial("pop")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo = %q, %v", buf, err)
	}
	if got := fn.StalledReads.Value(); got != 0 {
		t.Errorf("StalledReads = %d on a link never stalled", got)
	}
}

func TestFaultNetworkCutSeversAndHealRestores(t *testing.T) {
	fn := echoNetwork(t, "pop")
	c, err := fn.Dial("pop")
	if err != nil {
		t.Fatal(err)
	}
	fn.Cut("pop")
	if _, err := c.Write([]byte("x")); err == nil {
		t.Error("write on severed conn succeeded")
	}
	if _, err := fn.Dial("pop"); err == nil {
		t.Error("dial to cut target succeeded")
	}
	if fn.InjectedCuts.Value() != 1 {
		t.Errorf("InjectedCuts = %d", fn.InjectedCuts.Value())
	}
	fn.Heal("pop")
	c2, err := fn.Dial("pop")
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	_ = c2.Close()
}

func TestFaultNetworkStallParksReaders(t *testing.T) {
	fn := echoNetwork(t, "pop")
	c, err := fn.Dial("pop")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	fn.Stall("pop")
	done := make(chan string, 1)
	go func() {
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err.Error()
			return
		}
		done <- string(buf)
	}()
	select {
	case v := <-done:
		t.Fatalf("stalled read returned %q", v)
	case <-time.After(50 * time.Millisecond):
	}
	fn.Unstall("pop")
	select {
	case v := <-done:
		if v != "ping" {
			t.Fatalf("read after unstall = %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read never released after unstall")
	}
	if fn.StalledReads.Value() == 0 {
		t.Error("StalledReads not counted")
	}
}

// A stalled read ends one of three ways: Unstall hands it the data waiting
// on the link, while a Cut of its target and a Close of its own conn each
// end it with an error.
func TestFaultNetworkStalledReadEnds(t *testing.T) {
	cases := []struct {
		name    string
		release func(fn *FaultNetwork, c io.ReadWriteCloser)
		wantErr bool
	}{
		{"unstall", func(fn *FaultNetwork, _ io.ReadWriteCloser) { fn.Unstall("pop") }, false},
		{"cut", func(fn *FaultNetwork, _ io.ReadWriteCloser) { fn.Cut("pop") }, true},
		{"close", func(_ *FaultNetwork, c io.ReadWriteCloser) { _ = c.Close() }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fn := echoNetwork(t, "pop")
			c, err := fn.Dial("pop")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write([]byte("x")); err != nil {
				t.Fatal(err)
			}
			fn.Stall("pop")
			type result struct {
				data string
				err  error
			}
			done := make(chan result, 1)
			go func() {
				buf := make([]byte, 1)
				n, err := c.Read(buf)
				done <- result{string(buf[:n]), err}
			}()
			for fn.StalledReads.Value() == 0 {
				time.Sleep(time.Millisecond)
			}
			tc.release(fn, c)
			select {
			case r := <-done:
				if tc.wantErr && r.err == nil {
					t.Errorf("read returned %q, nil; want an error", r.data)
				}
				if !tc.wantErr && (r.err != nil || r.data != "x") {
					t.Errorf("read = %q, %v; want \"x\"", r.data, r.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s did not end the stalled read", tc.name)
			}
		})
	}
}

func TestPlanScheduleDeterministicPerSeed(t *testing.T) {
	targets := []string{"pop-0", "pop-1", "pop-2"}
	a := RandomPlan(42, targets, time.Minute, 5)
	b := RandomPlan(42, targets, time.Minute, 5)
	if a.Schedule() != b.Schedule() {
		t.Fatalf("same seed, different schedules:\n%s\nvs\n%s", a.Schedule(), b.Schedule())
	}
	c := RandomPlan(43, targets, time.Minute, 5)
	if a.Schedule() == c.Schedule() {
		t.Error("different seeds produced identical schedules")
	}
	if a.Len() != 10 { // 5 cut/heal pairs
		t.Errorf("plan len = %d, want 10", a.Len())
	}
	if h := a.Horizon(); h > time.Minute*3/4 {
		t.Errorf("horizon %v exceeds fault-free tail boundary", h)
	}
}

func TestPlanRunsOnVirtualClock(t *testing.T) {
	eng := sim.NewEngine(time.Unix(0, 0))
	fn := NewFaultNetwork(edge.NewPipeNetwork(), eng)
	fn.inner.Register("pop", func(rwc io.ReadWriteCloser) {})
	plan := new(Plan).CutAt(10*time.Millisecond, "pop").HealAt(20*time.Millisecond, "pop")
	plan.Start(fn)
	eng.RunUntil(eng.Now().Add(15 * time.Millisecond))
	if _, err := fn.Dial("pop"); err == nil {
		t.Error("dial succeeded during scheduled outage")
	}
	eng.RunUntil(eng.Now().Add(15 * time.Millisecond))
	if _, err := fn.Dial("pop"); err != nil {
		t.Errorf("dial failed after scheduled heal: %v", err)
	}
	if fn.InjectedCuts.Value() != 1 {
		t.Errorf("InjectedCuts = %d", fn.InjectedCuts.Value())
	}
}

func TestPlanStartCancelStopsPendingActions(t *testing.T) {
	eng := sim.NewEngine(time.Unix(0, 0))
	fn := NewFaultNetwork(edge.NewPipeNetwork(), eng)
	fn.inner.Register("pop", func(rwc io.ReadWriteCloser) {})
	cancel := new(Plan).CutAt(10*time.Millisecond, "pop").Start(fn)
	cancel()
	eng.RunUntil(eng.Now().Add(time.Second))
	if fn.InjectedCuts.Value() != 0 {
		t.Errorf("cancelled plan still fired %d cuts", fn.InjectedCuts.Value())
	}
}
