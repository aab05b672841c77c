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
// comment creation to availability at the edge.
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
	poll := DefaultPollModels()
	stream := DefaultStreamModels()

	pollHist := metrics.NewHistogram[time.Duration]()
	streamHist := metrics.NewHistogram[time.Duration]()

	for i := 0; i < samples; i++ {
		pollHist.Observe(samplePollLatency(rng, poll))
		streamHist.Observe(sampleStreamLatency(rng, stream))
	}

	r := Result{ID: "fig6", Title: "LVC comment latency: poll vs stream"}
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

// samplePollLatency draws one comment's poll-path latency.
func samplePollLatency(rng *rand.Rand, m PollModels) time.Duration {
	lat := m.StoreVisible.Sample(rng)
	// Wait for the next poll tick.
	lat += time.Duration(rng.Int63n(int64(m.Interval)))
	// A poll may miss the comment (index lag); each miss costs another
	// interval.
	for rng.Float64() < m.MissProb {
		lat += m.Interval
	}
	// The poll that finds it still has to complete.
	lat += m.Response.Sample(rng)
	return lat
}

// sampleStreamLatency draws one comment's Bladerunner-path latency.
func sampleStreamLatency(rng *rand.Rand, m StreamModels) time.Duration {
	lat := m.L.EdgeToWAS.Sample(rng)
	lat += m.L.WASRanking.Sample(rng) // LVC pre-ranks everything
	lat += m.L.PylonFanout.Sample(rng)
	lat += m.L.BRASSProcess.Sample(rng)
	wait := m.BufferWait.Sample(rng)
	if wait > m.BufferCap {
		wait = m.BufferCap
	}
	lat += wait
	lat += m.L.BRASSQueryWAS.Sample(rng)
	lat += m.L.LVCPushToDevice.Sample(rng)
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

var _ = sim.Constant{} // latency models come from latency.go
