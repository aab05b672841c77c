package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram[time.Duration]()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram not zero-valued")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if got, want := h.Mean(), 50500*time.Microsecond; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if s := h.Snapshot(); s.Min != time.Millisecond || h.Max() != 100*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", s.Min, h.Max())
	}
	p50 := h.Percentile(50)
	if p50 < 49*time.Millisecond || p50 > 52*time.Millisecond {
		t.Errorf("P50 = %v", p50)
	}
	if h.Percentile(0) != time.Millisecond {
		t.Errorf("P0 = %v", h.Percentile(0))
	}
	if h.Percentile(100) != 100*time.Millisecond {
		t.Errorf("P100 = %v", h.Percentile(100))
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram[time.Duration]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", h.Count())
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram[time.Duration]()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	cdf := h.CDF(10)
	if len(cdf) != 10 {
		t.Fatalf("CDF len = %d", len(cdf))
	}
	prev := time.Duration(-1)
	for _, p := range cdf {
		if p.Value < prev {
			t.Errorf("CDF not monotone: %v after %v", p.Value, prev)
		}
		prev = p.Value
	}
	if cdf[9].Fraction != 1.0 {
		t.Errorf("last fraction = %v", cdf[9].Fraction)
	}
	if got := cdf[4].Value; got < 450*time.Millisecond || got > 550*time.Millisecond {
		t.Errorf("CDF 50%% value = %v", got)
	}
	if h2 := NewHistogram[time.Duration](); h2.CDF(5) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram[time.Duration]()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Second)
	}
	got := h.Buckets([]time.Duration{25 * time.Second, 50 * time.Second, 75 * time.Second})
	// A bucket near 75s is 2^31 ns wide and holds up to three of the
	// one-second-apart observations, so up to two cross each bound.
	var sum int64
	for i, n := range got {
		sum += n
		if n < 23 || n > 27 {
			t.Errorf("Buckets[%d] = %d, want 25±2 (%v)", i, n, got)
		}
	}
	if len(got) != 4 || sum != 100 {
		t.Fatalf("Buckets = %v, want 4 ranges summing to 100", got)
	}
}

func TestHistogramSnapshotOrdering(t *testing.T) {
	h := NewHistogram[time.Duration]()
	for i := 0; i < 10000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if !(s.P50 <= s.P75 && s.P75 <= s.P90 && s.P90 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Errorf("percentiles out of order: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

// Property: mean is always between min and max.
func TestHistogramMeanBoundedProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram[time.Duration]()
		for _, v := range raw {
			h.Observe(time.Duration(v))
		}
		m := h.Mean()
		return m >= h.Snapshot().Min && m <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Errorf("Value = %d", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("Value = %d", g.Value())
	}
}

var tsStart = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(tsStart, 15*time.Minute, 96) // 24h of 15-min buckets
	if ts.Buckets() != 96 || !ts.BucketTime(0).Equal(tsStart) || !ts.BucketTime(1).Equal(tsStart.Add(15*time.Minute)) {
		t.Fatal("constructor fields wrong")
	}
	ts.Inc(tsStart)                        // bucket 0
	ts.Inc(tsStart.Add(14 * time.Minute))  // bucket 0
	ts.Add(tsStart.Add(16*time.Minute), 5) // bucket 1
	ts.Inc(tsStart.Add(-time.Minute))      // dropped
	ts.Inc(tsStart.Add(24 * time.Hour))    // dropped
	if ts.Sum(0) != 2 {
		t.Errorf("bucket0 sum=%v", ts.Sum(0))
	}
	if ts.Sum(1) != 5 {
		t.Errorf("bucket1 sum=%v", ts.Sum(1))
	}
	if ts.Sum(2) != 0 {
		t.Errorf("empty bucket sum = %v", ts.Sum(2))
	}
	if got := ts.GrandTotal(); got != 7 {
		t.Errorf("GrandTotal = %v", got)
	}
	if !ts.BucketTime(4).Equal(tsStart.Add(time.Hour)) {
		t.Errorf("BucketTime(4) = %v", ts.BucketTime(4))
	}
}

func TestTimeSeriesPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero width")
		}
	}()
	NewTimeSeries(tsStart, 0, 10)
}
