package sim

import (
	"math/rand"
	"time"
)

// Dist is a distribution over durations, used to model component latencies
// (network hops, ranking time, queue delays) in the experiment harness.
type Dist interface {
	// Sample draws one value using rng.
	Sample(rng *rand.Rand) time.Duration
}

// Constant is a degenerate distribution that always returns V.
type Constant struct{ V time.Duration }

// Sample returns the constant value.
func (c Constant) Sample(*rand.Rand) time.Duration { return c.V }

// Uniform is the uniform distribution on [Lo, Hi).
type Uniform struct{ Lo, Hi time.Duration }

// Sample draws uniformly from [Lo, Hi).
func (u Uniform) Sample(rng *rand.Rand) time.Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + time.Duration(rng.Int63n(int64(u.Hi-u.Lo)))
}

// Exponential is an exponential distribution with the given mean, optionally
// shifted by Min (all samples are >= Min). Models memoryless service times.
type Exponential struct {
	MeanVal time.Duration
	Min     time.Duration
}

// Sample draws Min + Exp(mean).
func (e Exponential) Sample(rng *rand.Rand) time.Duration {
	mean := float64(e.MeanVal - e.Min)
	if mean <= 0 {
		return e.Min
	}
	return e.Min + time.Duration(rng.ExpFloat64()*mean)
}
