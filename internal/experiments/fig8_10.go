package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"bladerunner/internal/workload"
)

// figStart anchors the simulated day (the paper's data is from March 2020).
var figStart = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

// Figure8 prints the per-user diurnal curves that drive the paper's Fig 8:
// active request-streams, subscription requests and Pylon publications, in
// 15-minute buckets over 24 hours. All three are inputs, the production
// workload replayed by the calibrated generators of DESIGN.md §4. Fig 8's
// decision and delivery curves are the system's response to that workload;
// the fraction BRASS filters is measured on live LVC streams by Switchover.
func Figure8(seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	r := Result{ID: "fig8", Title: "Per-user diurnal activity inputs (24h, 15-min buckets)"}
	for _, c := range []struct {
		series, label, paper, note string
		curve                      workload.Diurnal
	}{
		{"streams", "active request-streams per user", "6.5-11", "input: diurnal", workload.ActiveStreamsPerUser},
		{"subscriptions", "subscriptions /min/user", "0.5-0.75",
			"input: ~5000 subs/s per BRASS host at fleet scale", workload.SubscriptionsPerUserMinute},
		{"publications", "Pylon publications /min/user", "0.8-1.5", "input", workload.PublicationsPerUserMinute},
	} {
		// Each point in the paper averages 15 one-minute samples.
		pts := sampleDay(c.curve, rng, 0.015)
		r.AddRow(c.label, c.paper, span(pts, func(v float64) string { return fmt.Sprintf("%.2f", v) }), c.note)
		r.AddSeries(c.series, pts)
	}
	return r
}

// Figure10 prints the inputs of the paper's failure-handling figure:
// last-mile connection drops per minute (top) and proxy-induced stream
// reconnects per minute (bottom), in 15-minute buckets. Both are the
// production rates replayed, with upgrade-window spikes on the reconnects.
func Figure10(seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	drops := sampleDay(workload.EdgeConnectionDropsPerMinute, rng, 0.03)
	reconnects := sampleDay(workload.ProxyReconnectsPerMinute, rng, 0.03)
	for i, p := range reconnects {
		// Upgrade waves add spikes during working hours.
		if p.X >= 9 && p.X <= 17 && rng.Float64() < 0.2 {
			reconnects[i].Y *= 1.5
		}
	}

	r := Result{ID: "fig10", Title: "Failure handling inputs: drops and proxy-induced reconnects"}
	mil := func(v float64) string { return fmt.Sprintf("%.1fM", v/1e6) }
	r.AddRow("last-mile drops /min (range)", "18M-33M", span(drops, mil), "input: diurnal")
	r.AddRow("proxy-induced reconnects /min (range)", "0.5M-2M", span(reconnects, mil),
		"input: spikes during upgrade windows")
	r.AddSeries("drops", drops)
	r.AddSeries("reconnects", reconnects)
	return r
}

// sampleDay samples curve at each 15-minute bucket of the simulated day,
// scaling every point by 1 + noise·N(0,1).
func sampleDay(curve workload.Diurnal, rng *rand.Rand, noise float64) []SeriesPoint {
	pts := make([]SeriesPoint, 96)
	for b := range pts {
		t := figStart.Add(time.Duration(b) * 15 * time.Minute)
		pts[b] = SeriesPoint{X: float64(b) / 4, Y: curve.At(t) * (1 + noise*rng.NormFloat64())}
	}
	return pts
}

// span formats the range of pts' values as "lo-hi".
func span(pts []SeriesPoint, format func(float64) string) string {
	lo, hi := pts[0].Y, pts[0].Y
	for _, p := range pts {
		lo, hi = min(lo, p.Y), max(hi, p.Y)
	}
	return format(lo) + "-" + format(hi)
}
