package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestBucketLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Histogram[int64]{}); sz > 16<<10 {
		t.Errorf("Histogram is %d bytes, want <= 16 KiB", sz)
	}
	if got := bucketOf(math.MaxInt64); got != numBuckets-1 {
		t.Errorf("bucketOf(MaxInt64) = %d, want the last bucket %d", got, numBuckets-1)
	}
	if bucketOf(-5) != 0 || bucketOf(0) != 0 {
		t.Error("zero and negative values must share bucket 0")
	}
	for v := int64(0); v < 64; v++ {
		if bucketMid(bucketOf(v)) != v {
			t.Fatalf("value %d below 64 is not its own bucket", v)
		}
	}
	// Buckets tile the range in order, and a bucket's midpoint is within
	// 1/64 of anything it holds.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := rng.Int63() >> rng.Intn(63)
		b := bucketOf(v)
		if bucketOf(bucketMid(b)) != b {
			t.Fatalf("midpoint of bucket %d (value %d) maps elsewhere", b, v)
		}
		if diff := bucketMid(b) - v; diff > v/64 || -diff > v/64 {
			t.Fatalf("value %d reported as %d: off by more than 1/64", v, bucketMid(b))
		}
		if v < math.MaxInt64 && bucketOf(v+1) < b {
			t.Fatalf("bucketOf not monotone at %d", v)
		}
	}
}

// exactPercentile is the order-statistic definition the histogram
// estimates: linear interpolation at rank p/100*(n-1) of the sorted
// sample.
func exactPercentile(sorted []int64, p float64) int64 {
	rank := p / 100 * float64(len(sorted)-1)
	k := int(rank)
	if k+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[k] + int64((rank-float64(k))*float64(sorted[k+1]-sorted[k]))
}

// TestHistogramErrorBoundProperty feeds seeded samples of two shapes —
// log-uniform over nine decades, and small integers — and checks every
// query against the sorted sample itself.
func TestHistogramErrorBoundProperty(t *testing.T) {
	shapes := map[string]func(*rand.Rand) int64{
		"log-uniform":   func(r *rand.Rand) int64 { return int64(math.Exp(r.Float64() * math.Log(1e9))) },
		"small-integer": func(r *rand.Rand) int64 { return r.Int63n(64) },
	}
	for name, draw := range shapes {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(20000)
			h := NewHistogram[int64]()
			sample := make([]int64, n)
			var sum int64
			for i := range sample {
				sample[i] = draw(rng)
				sum += sample[i]
				h.Observe(sample[i])
			}
			sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })

			if s := h.Snapshot(); h.Count() != int64(n) || s.Sum != sum || h.Mean() != sum/int64(n) ||
				s.Min != sample[0] || h.Max() != sample[n-1] {
				t.Fatalf("%s/%d: count/sum/mean/min/max = %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d", name, seed,
					h.Count(), s.Sum, h.Mean(), s.Min, h.Max(), n, sum, sum/int64(n), sample[0], sample[n-1])
			}
			for _, p := range []float64{0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
				got, want := h.Percentile(p), exactPercentile(sample, p)
				tol := want / 32
				if sample[n-1] < 64 {
					tol = 0
				}
				if got < want-tol || got > want+tol {
					t.Errorf("%s/%d: p%v = %d, exact %d, tolerance %d", name, seed, p, got, want, tol)
				}
			}
			prev := int64(math.MinInt64)
			for _, pt := range h.CDF(50) {
				if pt.Value < prev {
					t.Fatalf("%s/%d: CDF not monotone: %d after %d", name, seed, pt.Value, prev)
				}
				prev = pt.Value
			}
			var inBuckets int64
			for _, c := range h.Buckets([]int64{0, 10, 63, 1000, 1e6, 1e8}) {
				inBuckets += c
			}
			if inBuckets != int64(n) {
				t.Errorf("%s/%d: Buckets sum to %d, want %d", name, seed, inBuckets, n)
			}
		}
	}
}

func TestHistogramInt64Basics(t *testing.T) {
	h := NewHistogram[int64]()
	if h.Count() != 0 || h.Mean() != 0 || h.Snapshot().Min != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if s := h.Snapshot(); s != (Snapshot[int64]{}) {
		t.Fatalf("empty snapshot = %+v", s)
	}
	for _, v := range []int64{4, 2, 8, 2} {
		h.Observe(v)
	}
	if s := h.Snapshot(); h.Count() != 4 || s.Sum != 16 || h.Mean() != 4 || s.Min != 2 || h.Max() != 8 {
		t.Fatalf("count/sum/mean/min/max = %d/%d/%d/%d/%d, want 4/16/4/2/8",
			h.Count(), s.Sum, h.Mean(), s.Min, h.Max())
	}
	h.Observe(-3)
	if s := h.Snapshot(); s.Min != -3 || s.Sum != 13 || h.Percentile(0) != -3 {
		t.Fatalf("negative observation: min=%d sum=%d p0=%d, want -3/13/-3", s.Min, s.Sum, h.Percentile(0))
	}
}

func TestHistogramInt64Percentiles(t *testing.T) {
	h := NewHistogram[int64]()
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if p := h.Percentile(0); p != 1 {
		t.Fatalf("p0 = %d, want 1", p)
	}
	if p := h.Percentile(100); p != 100 {
		t.Fatalf("p100 = %d, want 100", p)
	}
	if p := h.Percentile(50); p < 49 || p > 52 {
		t.Fatalf("p50 = %d, want ~50", p)
	}
	snap := h.Snapshot()
	if snap.Count != 100 || snap.Sum != 5050 || snap.Mean != 50 || snap.Max != 100 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Above 64 a bucket is two wide: 90 and 91 share one, reported as 91.
	if got, want := snap.String(), "n=100 mean=50 p50=50 p75=75 p90=91 p95=95 p99=99 max=100"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestSnapshotStringKeepsMicroseconds: the hops and replication lags this
// system has are tens of microseconds; rounding them to 1ms printed p50=0s.
func TestSnapshotStringKeepsMicroseconds(t *testing.T) {
	h := NewHistogram[time.Duration]()
	for i := 0; i < 3; i++ {
		h.Observe(45678 * time.Nanosecond)
	}
	if got, want := h.Snapshot().String(), "n=3 mean=45.7µs p50=45.7µs p75=45.7µs p90=45.7µs p95=45.7µs p99=45.7µs max=45.7µs"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRound3(t *testing.T) {
	for _, c := range []struct{ in, want int64 }{
		{0, 0}, {7, 7}, {999, 999}, {1234, 1230}, {1235, 1240}, {-1235, -1240}, {-1234, -1230},
		{99950, 100000}, {123456789, 123000000},
	} {
		if got := Round3(c.in); got != c.want {
			t.Errorf("Round3(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := Round3(1234567 * time.Nanosecond).String(); got != "1.23ms" {
		t.Errorf("Round3(1.234567ms) prints %s, want 1.23ms", got)
	}
}

func TestFirstObserveDoesNotAllocate(t *testing.T) {
	hs := make([]*Histogram[time.Duration], 101)
	for i := range hs {
		hs[i] = NewHistogram[time.Duration]()
	}
	next := 0
	if allocs := testing.AllocsPerRun(100, func() {
		hs[next].Observe(time.Duration(next+1) * time.Millisecond)
		next++
	}); allocs != 0 {
		t.Errorf("first Observe on a fresh histogram allocates %v times, want 0", allocs)
	}
}

// TestConcurrentObserveAndSnapshot runs writers against a reader under the
// race detector; every snapshot the reader takes must be internally
// ordered, and the final one must have lost nothing.
func TestConcurrentObserveAndSnapshot(t *testing.T) {
	const writers, each = 4, 5000
	h := NewHistogram[time.Duration]()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := h.Snapshot()
		if s.Count > 0 && !(s.Min <= s.P50 && s.P50 <= s.P75 && s.P75 <= s.P90 &&
			s.P90 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
			t.Fatalf("snapshot out of order under concurrent writes: %+v", s)
		}
	}
	if s := h.Snapshot(); s.Count != writers*each || s.Count != h.Count() {
		t.Errorf("final count = %d (Count() %d), want %d", s.Count, h.Count(), writers*each)
	}
}

// sumInto adds src to dst the way a fleet aggregator would: counts bucket
// by bucket, Count and Sum added, the wider Min and Max kept.
func sumInto[T ~int64](dst, src *Histogram[T]) {
	for i := range src.buckets {
		dst.buckets[i].Add(src.buckets[i].Load())
	}
	dst.count.Add(src.count.Load())
	dst.sum.Add(src.sum.Load())
	dst.min.Store(min(dst.min.Load(), src.min.Load()))
	dst.max.Store(max(dst.max.Load(), src.max.Load()))
}

func TestBucketwiseSumEqualsOneHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	hostA, hostB, fleet := NewHistogram[time.Duration](), NewHistogram[time.Duration](), NewHistogram[time.Duration]()
	for i := 0; i < 30000; i++ {
		v := time.Duration(math.Exp(rng.Float64() * math.Log(float64(10*time.Second))))
		host := hostA
		if rng.Intn(3) == 0 {
			host = hostB
		}
		host.Observe(v)
		fleet.Observe(v)
	}
	summed := NewHistogram[time.Duration]()
	sumInto(summed, hostA)
	sumInto(summed, hostB)
	if got, want := summed.Snapshot(), fleet.Snapshot(); got != want {
		t.Errorf("summed hosts = %v\n one histogram = %v", got, want)
	}
	gotCDF, wantCDF := summed.CDF(100), fleet.CDF(100)
	for i := range wantCDF {
		if gotCDF[i] != wantCDF[i] {
			t.Fatalf("CDF point %d: summed %v, one histogram %v", i, gotCDF[i], wantCDF[i])
		}
	}
}
