package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Dist is a distribution over durations, used to model component latencies
// (network hops, ranking time, queue delays) in the experiment harness.
type Dist interface {
	// Sample draws one value using rng.
	Sample(rng *rand.Rand) time.Duration
	// Mean returns the analytic mean of the distribution.
	Mean() time.Duration
}

// Constant is a degenerate distribution that always returns V.
type Constant struct{ V time.Duration }

// Sample returns the constant value.
func (c Constant) Sample(*rand.Rand) time.Duration { return c.V }

// Mean returns the constant value.
func (c Constant) Mean() time.Duration { return c.V }

// Uniform is the uniform distribution on [Lo, Hi).
type Uniform struct{ Lo, Hi time.Duration }

// Sample draws uniformly from [Lo, Hi).
func (u Uniform) Sample(rng *rand.Rand) time.Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + time.Duration(rng.Int63n(int64(u.Hi-u.Lo)))
}

// Mean returns (Lo+Hi)/2.
func (u Uniform) Mean() time.Duration { return (u.Lo + u.Hi) / 2 }

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

// Mean returns the configured mean.
func (e Exponential) Mean() time.Duration { return e.MeanVal }

// LogNormal models heavy-ish tailed latencies (the usual shape of RPC and
// last-mile network latency). Median is exp(Mu) nanoseconds; Sigma controls
// tail weight.
type LogNormal struct {
	Mu    float64 // log of median, in log-nanoseconds
	Sigma float64
}

// LogNormalFromMedian builds a LogNormal with the given median and sigma.
func LogNormalFromMedian(median time.Duration, sigma float64) LogNormal {
	return LogNormal{Mu: math.Log(float64(median)), Sigma: sigma}
}

// Sample draws a log-normal value.
func (l LogNormal) Sample(rng *rand.Rand) time.Duration {
	return time.Duration(math.Exp(l.Mu + l.Sigma*rng.NormFloat64()))
}

// Mean returns exp(mu + sigma^2/2).
func (l LogNormal) Mean() time.Duration {
	return time.Duration(math.Exp(l.Mu + l.Sigma*l.Sigma/2))
}

// Pareto is a bounded Pareto distribution, used for the long-tailed
// quantities in the paper (topic popularity, poll-tail latencies).
type Pareto struct {
	Xm    time.Duration // scale (minimum)
	Alpha float64       // shape; smaller = heavier tail
	Cap   time.Duration // optional upper bound; 0 = unbounded
}

// Sample draws from the (optionally capped) Pareto.
func (p Pareto) Sample(rng *rand.Rand) time.Duration {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	v := time.Duration(float64(p.Xm) / math.Pow(u, 1/p.Alpha))
	if p.Cap > 0 && v > p.Cap {
		v = p.Cap
	}
	return v
}

// Mean returns the analytic mean for alpha > 1 (ignoring the cap), or Xm
// otherwise.
func (p Pareto) Mean() time.Duration {
	if p.Alpha <= 1 {
		return p.Xm
	}
	return time.Duration(p.Alpha * float64(p.Xm) / (p.Alpha - 1))
}

// Mixture draws from one of several component distributions with the given
// weights. Weights need not sum to 1; they are normalized.
type Mixture struct {
	Components []Dist
	Weights    []float64
	total      float64
}

// NewMixture validates and returns a Mixture.
func NewMixture(components []Dist, weights []float64) (*Mixture, error) {
	if len(components) == 0 || len(components) != len(weights) {
		return nil, fmt.Errorf("sim: mixture needs equal non-zero components (%d) and weights (%d)",
			len(components), len(weights))
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("sim: negative mixture weight %v", w)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("sim: mixture weights sum to zero")
	}
	return &Mixture{Components: components, Weights: weights, total: total}, nil
}

// MustMixture is NewMixture that panics on error (for package-level tables).
func MustMixture(components []Dist, weights []float64) *Mixture {
	m, err := NewMixture(components, weights)
	if err != nil {
		panic(err)
	}
	return m
}

// Sample picks a component by weight and samples it.
func (m *Mixture) Sample(rng *rand.Rand) time.Duration {
	x := rng.Float64() * m.total
	for i, w := range m.Weights {
		x -= w
		if x < 0 {
			return m.Components[i].Sample(rng)
		}
	}
	return m.Components[len(m.Components)-1].Sample(rng)
}

// Mean returns the weighted mean of the component means.
func (m *Mixture) Mean() time.Duration {
	var acc float64
	for i, c := range m.Components {
		acc += m.Weights[i] / m.total * float64(c.Mean())
	}
	return time.Duration(acc)
}
