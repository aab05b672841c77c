// Package workload generates synthetic load calibrated to the published
// characterization of Bladerunner's production traffic (paper §5): the
// Pareto-distributed update counts over areas of interest (Table 1), the
// request-stream lifetime mixture (Table 2), the per-stream publication
// activity (Fig 7), and the diurnal per-user rate curves (Fig 8).
//
// The paper itself characterizes the workload it measured; we generate from
// those published distributions and then verify that the system reproduces
// the metrics derived from them. See DESIGN.md §4.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// UpdateBucket is one row of the Table 1 distribution: with probability
// Prob, an area of interest receives between Lo and Hi updates per day
// (inclusive), sampled log-uniformly.
type UpdateBucket struct {
	Prob   float64
	Lo, Hi int64
}

// Table1Buckets is the paper's Table 1: the distribution of daily update
// counts across areas of interest. 83% of areas see zero updates; a tiny
// fraction sees more than 100M. The middle mass (100..1M) is the remainder
// the paper elides.
var Table1Buckets = []UpdateBucket{
	{Prob: 0.83, Lo: 0, Hi: 0},
	{Prob: 0.16, Lo: 1, Hi: 9},
	{Prob: 0.0095, Lo: 10, Hi: 99},
	{Prob: 0.000009, Lo: 100, Hi: 999_999},
	{Prob: 0.00049, Lo: 1_000_001, Hi: 99_999_999},
	{Prob: 0.000001, Lo: 100_000_001, Hi: 2_000_000_000},
}

// AreaUpdates samples a daily update count for one area of interest from
// the given bucket distribution.
func AreaUpdates(rng *rand.Rand, buckets []UpdateBucket) int64 {
	x := rng.Float64() * totalProb(buckets)
	for _, b := range buckets {
		x -= b.Prob
		if x < 0 {
			return sampleLogUniform(rng, b.Lo, b.Hi)
		}
	}
	last := buckets[len(buckets)-1]
	return sampleLogUniform(rng, last.Lo, last.Hi)
}

func totalProb(buckets []UpdateBucket) float64 {
	var t float64
	for _, b := range buckets {
		t += b.Prob
	}
	return t
}

// sampleLogUniform draws log-uniformly from [lo, hi] (heavy-tailed buckets
// should not be dominated by their upper bound).
func sampleLogUniform(rng *rand.Rand, lo, hi int64) int64 {
	if lo >= hi {
		return lo
	}
	lf, hf := math.Log(float64(lo+1)), math.Log(float64(hi+1))
	v := math.Exp(lf + rng.Float64()*(hf-lf))
	n := int64(v) - 1
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

// LifetimeBucket is one row of the Table 2 stream-lifetime mixture.
type LifetimeBucket struct {
	Prob   float64
	Lo, Hi time.Duration
}

// Table2Buckets is the paper's Table 2: 45% of request-streams live under
// 15 minutes, 26% between 15 minutes and an hour, 25% between one hour and
// a day, and 4% longer than a day.
var Table2Buckets = []LifetimeBucket{
	{Prob: 0.45, Lo: 5 * time.Second, Hi: 15 * time.Minute},
	{Prob: 0.26, Lo: 15 * time.Minute, Hi: time.Hour},
	{Prob: 0.25, Lo: time.Hour, Hi: 24 * time.Hour},
	{Prob: 0.04, Lo: 24 * time.Hour, Hi: 72 * time.Hour},
}

// StreamLifetime samples a request-stream lifetime from the Table 2
// mixture (log-uniform within each bucket).
func StreamLifetime(rng *rand.Rand, buckets []LifetimeBucket) time.Duration {
	var total float64
	for _, b := range buckets {
		total += b.Prob
	}
	x := rng.Float64() * total
	for _, b := range buckets {
		x -= b.Prob
		if x < 0 {
			return logUniformDur(rng, b.Lo, b.Hi)
		}
	}
	last := buckets[len(buckets)-1]
	return logUniformDur(rng, last.Lo, last.Hi)
}

func logUniformDur(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if lo >= hi {
		return lo
	}
	lf, hf := math.Log(float64(lo)), math.Log(float64(hi))
	return time.Duration(math.Exp(lf + rng.Float64()*(hf-lf)))
}

// Diurnal is a smooth day-shaped curve oscillating between Min (at the
// trough) and Max (at PeakHour), matching the shape of the paper's Fig 8
// and Fig 10 curves.
type Diurnal struct {
	Min, Max float64
	PeakHour float64 // local hour of the daily maximum, e.g. 19.5
}

// At returns the curve value at time t (using t's UTC hour-of-day).
func (d Diurnal) At(t time.Time) float64 {
	hour := float64(t.Hour()) + float64(t.Minute())/60
	phase := 2 * math.Pi * (hour - d.PeakHour) / 24
	mid := (d.Min + d.Max) / 2
	amp := (d.Max - d.Min) / 2
	return mid + amp*math.Cos(phase)
}

// Paper Fig 8's driving per-user curves.
var (
	// ActiveStreamsPerUser: 6.5 .. 11 active request-streams.
	ActiveStreamsPerUser = Diurnal{Min: 6.5, Max: 11, PeakHour: 19}
	// SubscriptionsPerUserMinute: 0.5 .. 0.75 subscription requests.
	SubscriptionsPerUserMinute = Diurnal{Min: 0.5, Max: 0.75, PeakHour: 19}
	// PublicationsPerUserMinute: 0.8 .. 1.5 Pylon publications.
	PublicationsPerUserMinute = Diurnal{Min: 0.8, Max: 1.5, PeakHour: 19}
)

// Paper Fig 10 fleet-wide curves (absolute counts per minute).
var (
	// EdgeConnectionDropsPerMinute: 18M .. 33M last-mile drops.
	EdgeConnectionDropsPerMinute = Diurnal{Min: 18e6, Max: 33e6, PeakHour: 19}
	// ProxyReconnectsPerMinute: 0.5M .. 2M proxy-induced stream
	// reconnects, dominated by BRASS software upgrades and rebalancing.
	ProxyReconnectsPerMinute = Diurnal{Min: 0.5e6, Max: 2e6, PeakHour: 14}
)

// Poisson draws a Poisson-distributed count with the given mean. For large
// means it uses the normal approximation (the experiments simulate millions
// of events per bucket).
func Poisson(rng *rand.Rand, mean float64) int64 {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		return int64(v + 0.5)
	}
	// Knuth for small means.
	l := math.Exp(-mean)
	var k int64
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// CommentBurst models a live-video comment storm: a base Poisson rate with
// occasional multiplicative bursts (the lunar-eclipse moment of §2).
type CommentBurst struct {
	BaseRatePerSec  float64
	BurstMultiplier float64
	BurstProb       float64 // probability a given second is inside a burst
}

// RateAt returns the expected comments per second at second index i.
func (c CommentBurst) RateAt(rng *rand.Rand, i int) float64 {
	rate := c.BaseRatePerSec
	if rng.Float64() < c.BurstProb {
		rate *= c.BurstMultiplier
	}
	return rate
}

// Validate sanity-checks bucket tables.
func Validate(buckets []UpdateBucket) error {
	if len(buckets) == 0 {
		return fmt.Errorf("workload: empty bucket table")
	}
	t := totalProb(buckets)
	if t <= 0 {
		return fmt.Errorf("workload: bucket probabilities sum to %v", t)
	}
	for i, b := range buckets {
		if b.Prob < 0 || b.Lo > b.Hi {
			return fmt.Errorf("workload: bad bucket %d: %+v", i, b)
		}
	}
	return nil
}

// Zipf is a power-law popularity distribution over n ranked items (areas
// of interest, topics): item k (0-based rank) is drawn with probability
// proportional to 1/(k+1)^S. This is the shape of topic popularity the
// paper's Table 1 implies — a tiny set of celebrity areas absorbs most of
// the update volume while the long tail is nearly idle — packaged as a
// sampler the scenario suite can drive subscriptions AND publishes from.
//
// Sampling is inverse-CDF over precomputed cumulative weights (one binary
// search, no rejection loop), so it is cheap enough to call per scheduled
// event and fully deterministic under a seeded rng.
type Zipf struct {
	cum []float64 // cum[k] = sum of weights of ranks 0..k, normalized to 1
	s   float64
}

// NewZipf builds a Zipf distribution over n items with exponent s. n must
// be positive; s <= 0 degenerates to uniform.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("workload: NewZipf with n=%d", n))
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -s)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return &Zipf{cum: cum, s: s}
}

// N returns the number of ranked items.
func (z *Zipf) N() int { return len(z.cum) }

// S returns the exponent.
func (z *Zipf) S() float64 { return z.s }

// Sample draws one rank in [0, N).
func (z *Zipf) Sample(rng *rand.Rand) int {
	x := rng.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Prob returns the probability mass of rank k.
func (z *Zipf) Prob(k int) float64 {
	if k < 0 || k >= len(z.cum) {
		return 0
	}
	if k == 0 {
		return z.cum[0]
	}
	return z.cum[k] - z.cum[k-1]
}
