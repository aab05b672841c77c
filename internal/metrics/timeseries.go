package metrics

import (
	"fmt"
	"sync"
	"time"
)

// TimeSeries accumulates values into fixed-width time buckets over a window
// [Start, Start+Width*Buckets). It backs the diurnal figures (Fig 8 and
// Fig 10 in the paper), which report per-minute rates averaged over 15-minute
// intervals.
type TimeSeries struct {
	mu    sync.Mutex
	start time.Time
	width time.Duration
	sums  []float64
}

// NewTimeSeries returns a TimeSeries with n buckets of the given width
// starting at start.
func NewTimeSeries(start time.Time, width time.Duration, n int) *TimeSeries {
	if width <= 0 || n <= 0 {
		panic(fmt.Sprintf("metrics: invalid time series width=%v n=%d", width, n))
	}
	return &TimeSeries{
		start: start,
		width: width,
		sums:  make([]float64, n),
	}
}

// Add records v at time t. Observations outside the window are dropped.
func (ts *TimeSeries) Add(t time.Time, v float64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	i := ts.index(t)
	if i < 0 {
		return
	}
	ts.sums[i] += v
}

// Inc records an occurrence (v=1) at time t.
func (ts *TimeSeries) Inc(t time.Time) { ts.Add(t, 1) }

func (ts *TimeSeries) index(t time.Time) int {
	d := t.Sub(ts.start)
	if d < 0 {
		return -1
	}
	i := int(d / ts.width)
	if i >= len(ts.sums) {
		return -1
	}
	return i
}

// Buckets returns the number of buckets.
func (ts *TimeSeries) Buckets() int { return len(ts.sums) }

// BucketTime returns the start time of bucket i.
func (ts *TimeSeries) BucketTime(i int) time.Time {
	return ts.start.Add(time.Duration(i) * ts.width)
}

// Sum returns the total recorded value in bucket i.
func (ts *TimeSeries) Sum(i int) float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.sums[i]
}

// Max returns the largest per-bucket sum and the index of its bucket —
// the peak of the series (e.g. the worst dial-rate spike during a
// reconnect storm). An all-empty series returns (0, 0).
func (ts *TimeSeries) Max() (peak float64, bucket int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for i, s := range ts.sums {
		if s > peak {
			peak, bucket = s, i
		}
	}
	return peak, bucket
}

// GrandTotal returns the sum over all buckets.
func (ts *TimeSeries) GrandTotal() float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var total float64
	for _, s := range ts.sums {
		total += s
	}
	return total
}
