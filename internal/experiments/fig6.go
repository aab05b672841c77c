package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"bladerunner/internal/metrics"
	"bladerunner/internal/sim"
)

// Figure6 regenerates the LiveVideoComments latency comparison between the
// polling implementation and Bladerunner: the distribution of time from
// comment creation to availability at the edge. It is the one latency model
// left in this package: the poll path's tail comes from production TAO
// overload under hot-video polling, which an in-process stack cannot
// produce, so both paths are composed from the per-stage inputs below.
//
// The structural difference reproduced here:
//
//   - Polling latency = store-visibility + wait-for-next-poll (uniform over
//     the interval, possibly several intervals when a poll misses) + the
//     poll's response time, whose tail is heavy because hot-video polls are
//     range/intersect queries over many TAO shards under load. The tail of
//     the response time is what produces the paper's long latency tail.
//   - Streaming latency = WAS ranking (bounded) + Pylon fanout + BRASS
//     processing + ranked-buffer wait (capped at 10 s by the product) +
//     push. Every stage is bounded, so the tail collapses.
//
// Paper anchors: mean 4.8 s → 3.4 s, p75 6 s → 4 s, p95 14 s → 6 s.
func Figure6(seed int64, samples int) Result {
	rng := rand.New(rand.NewSource(seed))

	pollHist := metrics.NewHistogram[time.Duration]()
	streamHist := metrics.NewHistogram[time.Duration]()

	for i := 0; i < samples; i++ {
		pollHist.Observe(samplePollLatency(rng))
		streamHist.Observe(sampleStreamLatency(rng))
	}

	r := Result{ID: "fig6", Title: "LVC comment latency: poll vs stream (model)"}
	ps, ss := pollHist.Snapshot(), streamHist.Snapshot()
	secs := func(d time.Duration) string { return fmt.Sprintf("%.1fs", d.Seconds()) }
	r.AddRow("poll mean", "4.8s", secs(ps.Mean), "")
	r.AddRow("stream mean", "3.4s", secs(ss.Mean), "")
	r.AddRow("poll p75", "6s", secs(ps.P75), "")
	r.AddRow("stream p75", "4s", secs(ss.P75), "")
	r.AddRow("poll p95", "14s", secs(ps.P95), "long tail")
	r.AddRow("stream p95", "6s", secs(ss.P95), "tail eliminated")
	r.AddRow("poll p99", "-", secs(ps.P99), "not reported; tail persists")
	r.AddRow("stream p99", "-", secs(ss.P99), "bounded by 10s buffer cap")

	// The figure's histogram: fraction of deliveries per 1-second bucket,
	// 1..20 s (matching the paper's x-axis).
	r.AddSeries("poll", histogramSeries(pollHist, samples))
	r.AddSeries("stream", histogramSeries(streamHist, samples))
	return r
}

// The poll path's inputs, calibrated to the production polling variant.
var (
	// pollInterval is the time between polls (production polled every
	// 1–2 s).
	pollInterval = 2 * time.Second
	// pollStoreVisible is comment creation → visible to TAO range queries.
	pollStoreVisible = sim.Exponential{MeanVal: 700 * time.Millisecond, Min: 150 * time.Millisecond}
	// pollResponse is the poll's request–response time: a lognormal body
	// with a Pareto overload tail (range/intersect queries across many
	// shards stall when the video is hot).
	pollResponse = sim.MustMixture(
		[]sim.Dist{
			sim.LogNormalFromMedian(1100*time.Millisecond, 0.5),
			sim.Pareto{Xm: 3600 * time.Millisecond, Alpha: 1.15, Cap: 60 * time.Second},
		},
		[]float64{0.85, 0.15},
	)
	// pollMissProb is the chance a visible comment is missed by one poll
	// (index lag / pagination), forcing it to wait another interval.
	pollMissProb = 0.25
)

// The stream path's inputs, in the order a comment crosses them: the
// sub-operation means of Table 3 and the ranges of Fig 9.
var (
	streamEdgeToWAS   = sim.LogNormalFromMedian(55*time.Millisecond, 0.55)
	streamRanking     = RankingHold
	streamPylonFanout = sim.Exponential{MeanVal: 100 * time.Millisecond, Min: 25 * time.Millisecond}
	streamBRASS       = sim.Exponential{MeanVal: 16 * time.Millisecond, Min: 2 * time.Millisecond}
	// streamBufferWait is the time a comment sits in the viewer's ranked
	// buffer before the rate limit pops it; the product discards comments
	// older than streamBufferCap.
	streamBufferWait = sim.Exponential{MeanVal: 650 * time.Millisecond}
	streamBufferCap  = 10 * time.Second
	streamQueryWAS   = sim.Exponential{MeanVal: 60 * time.Millisecond, Min: 15 * time.Millisecond}
	// streamPush is BRASS → edge → device; LVC pushes compete with video
	// bytes at the edge.
	streamPush = sim.LogNormalFromMedian(450*time.Millisecond, 0.85)
)

// samplePollLatency draws one comment's poll-path latency.
func samplePollLatency(rng *rand.Rand) time.Duration {
	lat := pollStoreVisible.Sample(rng)
	// Wait for the next poll tick.
	lat += time.Duration(rng.Int63n(int64(pollInterval)))
	// A poll may miss the comment (index lag); each miss costs another
	// interval.
	for rng.Float64() < pollMissProb {
		lat += pollInterval
	}
	// The poll that finds it still has to complete.
	lat += pollResponse.Sample(rng)
	return lat
}

// sampleStreamLatency draws one comment's Bladerunner-path latency.
func sampleStreamLatency(rng *rand.Rand) time.Duration {
	lat := streamEdgeToWAS.Sample(rng)
	lat += streamRanking.Sample(rng) // LVC pre-ranks everything
	lat += streamPylonFanout.Sample(rng)
	lat += streamBRASS.Sample(rng)
	lat += min(streamBufferWait.Sample(rng), streamBufferCap)
	lat += streamQueryWAS.Sample(rng)
	lat += streamPush.Sample(rng)
	return lat
}

// histogramSeries converts a histogram into the paper's per-second
// fraction buckets, 1..20 s.
func histogramSeries(h *metrics.Histogram[time.Duration], total int) []SeriesPoint {
	bounds := make([]time.Duration, 20)
	for i := range bounds {
		bounds[i] = time.Duration(i+1) * time.Second
	}
	counts := h.Buckets(bounds)
	out := make([]SeriesPoint, 0, 20)
	for i := 0; i < 20; i++ {
		out = append(out, SeriesPoint{
			X: float64(i + 1),
			Y: float64(counts[i]) / float64(total),
		})
	}
	return out
}
