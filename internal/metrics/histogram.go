// Package metrics provides the measurement primitives used across the
// Bladerunner reproduction: histograms with percentile queries, counters,
// and bucketed time series. All types are safe for concurrent use unless
// noted otherwise; the experiment harness also uses them single-threaded
// under the simulation engine.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Bucket layout, the same for every histogram. Values below 64 each get a
// bucket of their own; above that every power of two is cut into 32 equal
// sub-buckets, so no bucket is wider than 1/32 of its lower bound. The
// largest int64 lands in bucket 32*57+63: 1888 counters, under 16 KiB.
const (
	subBits    = 5
	numBuckets = (64 - subBits) << subBits
)

// bucketOf maps a value to its bucket; negative values share bucket 0.
func bucketOf(v int64) int {
	v = max(v, 0)
	shift := max(bits.Len64(uint64(v))-subBits-1, 0)
	return shift<<subBits + int(v>>shift)
}

// bucketMid is the value reported for every observation in bucket i: the
// bucket's midpoint, which is the value itself while buckets are one wide.
func bucketMid(i int) int64 {
	shift := max(i>>subBits-1, 0)
	return int64(i-shift<<subBits)<<shift + int64(1)<<shift/2
}

// Histogram records observations of an integer quantity — durations,
// fan-out sizes, queue depths. Count, Sum, Min, Max and Mean are exact;
// percentiles are read from the buckets, so they are exact below 64 and
// within 1/32 of the true order statistic above, whatever the sample count.
// Observe is a handful of atomic operations: no lock, no allocation, no
// sampling. Two histograms of one T combine by adding counts bucket by
// bucket (and Count and Sum, and taking the wider Min and Max), which is
// what lets per-host summaries be summed into a fleet's.
type Histogram[T ~int64] struct {
	count, sum atomic.Int64
	min, max   atomic.Int64
	buckets    [numBuckets]atomic.Int64

	// exemplars is a small ring of recent (value, trace ID) pairs recorded
	// via ObserveExemplar, linking histogram tails back to concrete traces.
	exMu      sync.Mutex
	exemplars [ExemplarCap]Exemplar[T]
	exCount   int
}

// ExemplarCap bounds the exemplar ring of each histogram: enough to chase
// a handful of recent outliers without growing the struct meaningfully.
const ExemplarCap = 8

// Exemplar is one observation tagged with the trace that produced it.
type Exemplar[T ~int64] struct {
	Value   T
	TraceID uint64
}

// NewHistogram returns an empty Histogram.
func NewHistogram[T ~int64]() *Histogram[T] {
	h := &Histogram[T]{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
//
//brlint:hotpath latency and fan-out accounting run on every publish and every per-delta apply
func (h *Histogram[T]) Observe(v T) {
	x := int64(v)
	// Min and max widen before the bucket counts the value, so a reader
	// that loads buckets first never sees a count outside [min, max].
	for m := h.min.Load(); x < m && !h.min.CompareAndSwap(m, x); m = h.min.Load() {
	}
	for m := h.max.Load(); x > m && !h.max.CompareAndSwap(m, x); m = h.max.Load() {
	}
	h.buckets[bucketOf(x)].Add(1)
	h.sum.Add(x)
	h.count.Add(1)
}

// ObserveExemplar records one value and, when traceID is nonzero,
// remembers (v, traceID) in the bounded exemplar ring. With a zero traceID
// it is exactly Observe.
func (h *Histogram[T]) ObserveExemplar(v T, traceID uint64) {
	h.Observe(v)
	if traceID == 0 {
		return
	}
	h.exMu.Lock()
	h.exemplars[h.exCount%ExemplarCap] = Exemplar[T]{Value: v, TraceID: traceID}
	h.exCount++
	h.exMu.Unlock()
}

// Exemplars returns a copy of the recorded exemplars (most recent last for
// an unwrapped ring; order is unspecified once the ring has wrapped).
func (h *Histogram[T]) Exemplars() []Exemplar[T] {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	return append([]Exemplar[T](nil), h.exemplars[:min(h.exCount, ExemplarCap)]...)
}

// Count returns the number of observations.
func (h *Histogram[T]) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram[T]) Sum() T { return T(h.sum.Load()) }

// Mean returns the mean (rounded toward zero), or 0 with no observations.
func (h *Histogram[T]) Mean() T { return T(h.sum.Load() / max(h.count.Load(), 1)) }

// Min returns the smallest observation (0 if empty).
func (h *Histogram[T]) Min() T { return T(h.view().min) }

// Max returns the largest observation (0 if empty).
func (h *Histogram[T]) Max() T { return T(h.view().max) }

// view is a copy of the counters taken at one moment, all zero for an empty
// histogram; every estimate read from it is clamped to its exact extremes.
type view struct {
	n, sum, min, max int64
	buckets          [numBuckets]int64
}

func (h *Histogram[T]) view() *view {
	v := new(view)
	for i := range h.buckets {
		v.buckets[i] = h.buckets[i].Load()
		v.n += v.buckets[i]
	}
	if v.n > 0 {
		v.sum, v.min, v.max = h.sum.Load(), h.min.Load(), h.max.Load()
	}
	return v
}

// value is the estimate for an observation counted in bucket i.
func (v *view) value(i int) int64 { return min(max(bucketMid(i), v.min), v.max) }

// at estimates the k-th smallest observation, k counted from 0. The two
// extremes are exact.
func (v *view) at(k int64) int64 {
	if k <= 0 {
		return v.min
	}
	if k < v.n-1 {
		var seen int64
		for i, c := range &v.buckets {
			if seen += c; seen > k {
				return v.value(i)
			}
		}
	}
	return v.max
}

// percentile interpolates between the two order statistics around rank
// p/100*(n-1).
func (v *view) percentile(p float64) int64 {
	if v.n == 0 {
		return 0
	}
	rank := min(max(p, 0), 100) / 100 * float64(v.n-1)
	k := int64(rank)
	lo := v.at(k)
	return lo + int64((rank-float64(k))*float64(v.at(k+1)-lo))
}

// Percentile returns the p-th percentile (p in [0,100]), or 0 with no
// observations.
func (h *Histogram[T]) Percentile(p float64) T { return T(h.view().percentile(p)) }

// CDFPoint is one point of a cumulative distribution: Fraction of
// observations were <= Value.
type CDFPoint[T ~int64] struct {
	Value    T
	Fraction float64
}

// CDF returns n evenly spaced (by cumulative fraction) points of the
// empirical CDF. It returns nil with no observations or n < 1.
func (h *Histogram[T]) CDF(n int) []CDFPoint[T] {
	v := h.view()
	if v.n == 0 || n < 1 {
		return nil
	}
	out := make([]CDFPoint[T], n)
	for i := range out {
		frac := float64(i+1) / float64(n)
		out[i] = CDFPoint[T]{Value: T(v.at(int64(frac*float64(v.n)) - 1)), Fraction: frac}
	}
	return out
}

// Buckets counts observations into the half-open ranges defined by the
// ascending bounds: (-inf, bounds[0]], (bounds[0], bounds[1]], ...,
// (bounds[n-1], +inf). The returned slice has len(bounds)+1 entries that
// sum to the observation count; an observation within 1/32 of a bound may
// be counted on either side of it.
func (h *Histogram[T]) Buckets(bounds []T) []int64 {
	v := h.view()
	out := make([]int64, len(bounds)+1)
	bi := 0
	for i, c := range &v.buckets {
		for c > 0 && bi < len(bounds) && v.value(i) > int64(bounds[bi]) {
			bi++
		}
		out[bi] += c
	}
	return out
}

// Snapshot is an immutable summary of a Histogram.
type Snapshot[T ~int64] struct {
	Count                   int64
	Sum, Min, Max, Mean     T
	P50, P75, P90, P95, P99 T
}

// Snapshot returns a summary of the aggregate state for reporting.
func (h *Histogram[T]) Snapshot() Snapshot[T] {
	v := h.view()
	return Snapshot[T]{
		Count: v.n, Sum: T(v.sum), Min: T(v.min), Max: T(v.max), Mean: T(v.sum / max(v.n, 1)),
		P50: T(v.percentile(50)), P75: T(v.percentile(75)), P90: T(v.percentile(90)),
		P95: T(v.percentile(95)), P99: T(v.percentile(99)),
	}
}

// String formats the snapshot compactly for logs and reports, every field
// at three significant digits in T's own notation.
func (s Snapshot[T]) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p75=%v p90=%v p95=%v p99=%v max=%v",
		s.Count, Round3(s.Mean), Round3(s.P50), Round3(s.P75), Round3(s.P90),
		Round3(s.P95), Round3(s.P99), Round3(s.Max))
}

// Round3 rounds v to three significant digits, so that a duration prints
// as 1.23ms or 45.6µs whatever its scale.
func Round3[T ~int64](v T) T {
	unit := T(1)
	for x := v / 1000; x != 0; x /= 10 {
		unit *= 10
	}
	// Adding the remainder a second time rounds half away from zero.
	return (v + v%unit) / unit * unit
}
