// Package faults is Bladerunner's deterministic fault-injection plane.
//
// The paper's §4 failure axioms — every participant learns of failures via
// flow_status, and streams are repairable from stored, rewritten requests —
// are only worth anything if they can be exercised. This package provides
// the machinery to do that reproducibly:
//
//   - FaultNetwork wraps edge.PipeNetwork and applies faults to
//     *established* connections, not just new dials: per-link latency
//     distributions, probabilistic corrupt-free cuts, directional
//     blackholes (asymmetric partitions), slow-reader stalls, and hard
//     cuts that sever live pipes.
//   - Plan is a scheduled fault timeline ("at T+x cut pop-0, at T+y heal")
//     driven through an injected sim.Scheduler, so the same plan replays
//     identically under the wall clock and under the discrete-event engine.
//   - Backoff is the shared jittered-exponential retry policy adopted by
//     the recovery paths (device reconnect/resubscribe, the BRASS host
//     subscription manager), seeded so chaos runs are reproducible and
//     jittered so mass disconnects do not re-dial in lockstep — the
//     reconnection-storm shape that dominates tail behaviour in
//     million-user messaging systems.
//
// All randomness is seeded math/rand and all time flows through injected
// sim.Clock/sim.Scheduler: the same seed yields the same fault schedule.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"bladerunner/internal/metrics"
)

// BackoffPolicy parameterizes a jittered exponential backoff. The zero
// value of any field is replaced by its default, so callers can set only
// what they care about.
type BackoffPolicy struct {
	// Base is the delay before the first retry (default 50ms).
	Base time.Duration
	// Max caps the raw (pre-jitter) delay (default 32×Base).
	Max time.Duration
	// Multiplier is the per-attempt growth factor (default 2).
	Multiplier float64
	// Jitter is the randomized fraction of each delay, in [0,1]: the
	// delay is drawn uniformly from [d·(1−Jitter), d·(1+Jitter)].
	// Defaults to 0.5. Use NoJitter for a fixed-delay policy.
	Jitter float64
	// NoJitter disables jitter entirely (Jitter 0 means "default", so a
	// deliberate fixed-delay policy needs an explicit flag).
	NoJitter bool
}

// Normalized fills zero fields with their defaults and clamps the rest
// (Max >= Base, Jitter in [0,1]). Normalizing twice changes nothing.
func (p BackoffPolicy) Normalized() BackoffPolicy {
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Max <= 0 {
		p.Max = 32 * p.Base
	}
	if p.Max < p.Base {
		p.Max = p.Base
	}
	switch {
	case p.NoJitter || p.Jitter < 0:
		p.Jitter, p.NoJitter = 0, true
	case p.Jitter == 0:
		p.Jitter = 0.5
	case p.Jitter > 1:
		p.Jitter = 1
	}
	return p
}

// Delay is the one backoff formula: the delay before retry number attempt
// (0 is the first) of a Normalized policy — Base·Multiplier^attempt capped at
// Max, which it reports as saturated — spread by the caller's randomness
// u in [0,1) uniformly over [raw·(1−Jitter), raw·(1+Jitter)]: the same mean
// as the fixed schedule, but a fleet of retries decorrelates. It keeps no
// state, so a holder may draw u from a seeded RNG (Backoff) or from a hash
// of what it already stores (megadevice's 0 B/device).
func (p BackoffPolicy) Delay(attempt int, u float64) (d time.Duration, saturated bool) {
	raw := float64(p.Base) * math.Pow(p.Multiplier, float64(attempt))
	if raw >= float64(p.Max) {
		raw, saturated = float64(p.Max), true
	}
	return time.Duration(raw * (1 - p.Jitter + 2*p.Jitter*u)), saturated
}

// String renders the normalized policy.
func (p BackoffPolicy) String() string {
	n := p.Normalized()
	return fmt.Sprintf("backoff{base=%v max=%v mult=%.2g jitter=%.2g}",
		n.Base, n.Max, n.Multiplier, n.Jitter)
}

// Backoff is one retry sequence's state: each Next call returns the next
// jittered delay and advances the attempt counter; Reset rewinds after a
// success. Safe for concurrent use. Child backoffs (per-stream, per-topic)
// share the parent's counters so a component can expose one set of
// retry/saturation metrics.
type Backoff struct {
	mu      sync.Mutex
	policy  BackoffPolicy
	rng     *rand.Rand
	attempt int

	retries     *metrics.Counter
	saturations *metrics.Counter
}

// NewBackoff builds a Backoff with the given (normalized) policy and seed.
func NewBackoff(p BackoffPolicy, seed int64) *Backoff {
	return &Backoff{
		policy:      p.Normalized(),
		rng:         rand.New(rand.NewSource(seed)),
		retries:     &metrics.Counter{},
		saturations: &metrics.Counter{},
	}
}

// Child derives an independent retry sequence (own attempt counter and RNG
// stream, derived deterministically from seed+salt) that shares the
// parent's metrics counters.
func (b *Backoff) Child(salt int64) *Backoff {
	b.mu.Lock()
	defer b.mu.Unlock()
	return &Backoff{
		policy:      b.policy,
		rng:         rand.New(rand.NewSource(b.rng.Int63() ^ salt)),
		retries:     b.retries,
		saturations: b.saturations,
	}
}

// Next returns the delay to wait before the next attempt and advances the
// attempt counter.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, saturated := b.policy.Delay(b.attempt, b.rng.Float64())
	if saturated {
		b.saturations.Inc()
	}
	b.attempt++
	b.retries.Inc()
	return d
}

// Reset rewinds the attempt counter after a successful attempt.
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.attempt = 0
	b.mu.Unlock()
}

// Attempt returns the number of Next calls since the last Reset.
func (b *Backoff) Attempt() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.attempt
}

// Retries returns the total retry delays handed out by this backoff and
// all backoffs sharing its counters (children).
func (b *Backoff) Retries() int64 { return b.retries.Value() }

// Saturations returns how many delays hit the policy's Max cap — sustained
// saturation means the outage outlasted the whole backoff ramp.
func (b *Backoff) Saturations() int64 { return b.saturations.Value() }
