package experiments

import (
	"math/rand"
	"time"

	"bladerunner/internal/workload"
)

// Table1 regenerates the paper's Table 1: the distribution of daily update
// counts over areas of interest. nAreas areas are sampled from the
// calibrated generator, so the bucket fractions are inputs read back next
// to the paper's row.
func Table1(seed int64, nAreas int) Result {
	rng := rand.New(rand.NewSource(seed))
	var zero, under10, under100, over1M, over100M int
	for i := 0; i < nAreas; i++ {
		u := workload.AreaUpdates(rng, workload.Table1Buckets)
		switch {
		case u == 0:
			zero++
		case u < 10:
			under10++
		case u < 100:
			under100++
		case u > 100_000_000:
			over100M++
		case u > 1_000_000:
			over1M++
		}
	}
	r := Result{ID: "table1", Title: "Updates per area of interest over 24h"}
	f := func(c int) float64 { return float64(c) / float64(nAreas) }
	r.AddRow("areas with 0 updates", "83%", pct(f(zero)), "input")
	r.AddRow("areas with <10 updates", "16%", pct(f(under10)), "input")
	r.AddRow("areas with <100 updates", "0.95%", pct(f(under100)), "input")
	r.AddRow("areas with >1M updates", "0.049%", pct(f(over1M)), "input")
	r.AddRow("areas with >100M updates", "0.0001%", pct(f(over100M)), "input: rarest bucket; wide CI at this sample size")
	return r
}

// Table2 samples the calibrated request-stream lifetime distribution, an
// input.
func Table2(seed int64, nStreams int) Result {
	rng := rand.New(rand.NewSource(seed))
	var b15m, b1h, b24h, bMore int
	for i := 0; i < nStreams; i++ {
		lt := workload.StreamLifetime(rng, workload.Table2Buckets)
		switch {
		case lt < 15*time.Minute:
			b15m++
		case lt < time.Hour:
			b1h++
		case lt < 24*time.Hour:
			b24h++
		default:
			bMore++
		}
	}
	r := Result{ID: "table2", Title: "Request-stream lifetime distribution"}
	f := func(c int) string { return pct(float64(c) / float64(nStreams)) }
	r.AddRow("<15 min", "45%", f(b15m), "input")
	r.AddRow("15 min - 1 hr", "26%", f(b1h), "input")
	r.AddRow("1 hr - 24 hr", "25%", f(b24h), "input")
	r.AddRow("24 hr+", "4%", f(bMore), "input")
	return r
}
