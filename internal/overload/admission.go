package overload

import (
	"sync"

	"bladerunner/internal/metrics"
	"bladerunner/internal/sim"
)

// Admission is the concurrent form of TokenBucket used on shared hot
// paths (Pylon publish, BRASS host delivery). Allow takes a short mutex
// and performs no allocations, so the zero-alloc publish path stays
// zero-alloc with admission enabled.
type Admission struct {
	clock sim.Clock

	mu sync.Mutex
	b  TokenBucket

	// Admitted and Shed count admission decisions. They are plain fields
	// (not pointers) so an Admission is self-contained.
	Admitted metrics.Counter
	Shed     metrics.Counter
}

// NewAdmission builds an admission controller refilling rate tokens/sec up
// to burst. rate <= 0 returns nil: a nil *Admission admits everything, so
// call sites guard with a single nil check and pay nothing when disabled.
// seed jitters the initial token level deterministically (half to full
// bucket) so a fleet of controllers brought up together does not open and
// exhaust its bursts in lockstep.
func NewAdmission(rate, burst float64, clock sim.Clock, seed int64) *Admission {
	if rate <= 0 {
		return nil
	}
	if clock == nil {
		clock = sim.RealClock{}
	}
	a := &Admission{clock: clock}
	a.b.Rate = rate
	a.b.Burst = burst
	cap := a.b.burstCap()
	// xorshift over the seed picks the initial fill in [cap/2, cap].
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	frac := 0.5 + 0.5*float64(x%1024)/1024
	a.b.tokens = cap * frac
	a.b.last = clock.Now()
	return a
}

// Allow consumes one token, reporting whether the caller may proceed. A
// nil receiver (admission disabled) always allows and counts nothing.
func (a *Admission) Allow() bool {
	if a == nil {
		return true
	}
	now := a.clock.Now()
	a.mu.Lock()
	ok := a.b.Allow(now)
	a.mu.Unlock()
	if ok {
		a.Admitted.Inc()
	} else {
		a.Shed.Inc()
	}
	return ok
}

// HeaderState snapshots the bucket state for persistence (see
// TokenBucket.HeaderState). Nil receivers return "".
func (a *Admission) HeaderState() string {
	if a == nil {
		return ""
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.b.HeaderState()
}

// RestoreHeaderState loads persisted state, clamped to the controller's
// clock (see TokenBucket.RestoreHeaderState). Nil receivers ignore it.
func (a *Admission) RestoreHeaderState(s string) {
	if a == nil {
		return
	}
	now := a.clock.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.b.RestoreHeaderState(s, now)
}

// Tokens reports the current token level (diagnostics/tests).
func (a *Admission) Tokens() float64 {
	if a == nil {
		return 0
	}
	now := a.clock.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.b.Tokens(now)
}
