// Package workload holds the load shapes the megadevice fleet
// (internal/megadevice) is driven by: a day-shaped rate curve, the paper's
// fleet-wide last-mile drop curve (Fig 10), Poisson counts and Zipf
// topic popularity.
//
// The paper characterizes the production workload it measured (§5: Tables
// 1 and 2, Figs 8 and 10); this repository does not reproduce that
// characterisation, and keeps only the shapes its fleet runs on. See
// DESIGN.md §4.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Diurnal is a smooth day-shaped curve oscillating between Min (at the
// trough) and Max (at PeakHour), the shape of the paper's Fig 8 and Fig 10
// curves. The megadevice fleet's online fraction and drop rate are
// Diurnal curves.
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

// EdgeConnectionDropsPerMinute is the paper's Fig 10 fleet-wide curve of
// last-mile connection drops: 18M .. 33M a minute.
var EdgeConnectionDropsPerMinute = Diurnal{Min: 18e6, Max: 33e6, PeakHour: 19}

// Poisson draws a Poisson-distributed count with the given mean. For large
// means it uses the normal approximation (a million-device fleet draws
// thousands of drops a simulated minute).
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
	return &Zipf{cum: cum}
}

// Sample draws one rank in [0, n).
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
