package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/metrics"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/trace"
)

// RankingHold is how long the WAS holds a ranked LVC comment for ML quality
// ranking before publishing it. Table 3: an LVC update takes 2,000 ms from
// WAS receipt to publish, 1,790 ms of it ranking. It is the one calibrated
// input of Table 3 and Fig 9; every other hop they report is the live
// stack's own time.
var RankingHold = sim.Exponential{MeanVal: 1790 * time.Millisecond, Min: 900 * time.Millisecond}

// lvcRateLimit is the per-stream push interval of TracedLVCRun and the
// switchover (production: 2 s): a buffered comment waits up to this long for
// its pop.
const lvcRateLimit = 5 * time.Millisecond

// TracedLVCRun boots a fully wired cluster with the tracing plane sampling
// at rate, subscribes viewers to one live video through the full edge path
// (device → POP → reverse proxy → BRASS), and posts events comments from a
// non-viewer user, returning once every viewer has applied every comment,
// so every sampled mutation's spans are closed — publish through device
// apply — by the time the plane is gathered.
//
// With rank nil each comment is published at once and pushed to every
// viewer before the next is posted, which fixes the delivery order (and so
// cmd/brtrace -verify's span forest). Otherwise the WAS holds each comment
// for a sample of rank before publishing it, and the comments are posted
// without waiting, so the holds overlap.
func TracedLVCRun(seed int64, viewers, events int, rate float64, rank sim.Dist) (*trace.Plane, error) {
	plane := trace.NewPlane(trace.Config{Rate: rate, Seed: seed})
	cfg := core.DefaultConfig()
	cfg.Graph.Users = 100
	cfg.Graph.BlockProb = 0 // privacy denials would make delivery counts workload-dependent
	cfg.Graph.Seed = seed
	cfg.Trace = plane
	c, err := core.NewCluster(cfg, nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.Apps.LVC.RateLimit = lvcRateLimit
	c.Apps.LVC.MinScore = 0
	c.WAS.RankDelay = rank

	const videoID = 7
	topic := apps.LVCTopic(videoID)
	sched := sim.RealClock{}

	// Viewers subscribe through the edge; a per-stream counter tracks how
	// many comment pushes each has applied.
	counters := make([]*int64, viewers)
	streams := make([]*device.Stream, viewers)
	for i := 0; i < viewers; i++ {
		d := c.NewDevice(socialgraph.UserID(i + 1))
		defer d.Close()
		if err := d.Connect(); err != nil {
			return nil, err
		}
		st, err := d.Subscribe(apps.AppLiveComments,
			fmt.Sprintf("liveVideoComments(videoID: %d)", videoID), nil)
		if err != nil {
			return nil, err
		}
		n := new(int64)
		counters[i], streams[i] = n, st
		go func() {
			for delta, ok := st.Next(); ok; delta, ok = st.Next() {
				if delta.Type == burst.DeltaPayload {
					atomic.AddInt64(n, 1)
				}
			}
		}()
	}
	if !c.WaitForStreams(topic, streams, 10*time.Second) {
		return nil, fmt.Errorf("traced LVC run: a viewer's BRASS host never subscribed to %s", topic)
	}
	reached := func(want int) func() bool {
		return func() bool {
			for _, n := range counters {
				if atomic.LoadInt64(n) < int64(want) {
					return false
				}
			}
			return true
		}
	}

	commenter := c.NewDevice(99)
	defer commenter.Close()
	for ev := 0; ev < events; ev++ {
		if _, err := commenter.Mutate(fmt.Sprintf(
			`postComment(videoID: %d, text: "comment %d")`, videoID, ev)); err != nil {
			return nil, err
		}
		if rank == nil && !waitUntil(sched, 15*time.Second, reached(ev+1)) {
			return nil, fmt.Errorf("traced LVC run: comment %d never reached every viewer", ev)
		}
	}
	if !waitUntil(sched, 30*time.Second, reached(events)) {
		return nil, fmt.Errorf("traced LVC run: %d comments never reached every viewer", events)
	}
	c.Quiesce()
	return plane, nil
}

// waitUntil polls cond through the scheduler until it holds or d elapses.
func waitUntil(sched sim.Scheduler, d time.Duration, cond func() bool) bool {
	const step = time.Millisecond
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		if cond() {
			return true
		}
		sim.Sleep(sched, step)
	}
	return cond()
}

// The size of each of LiveLatency's runs: every mutation is sampled.
const (
	latencyViewers = 3
	latencyEvents  = 20
)

// Segments of one delivery that span several hops, timed from the spans of
// one trace and kept in a spanRun's breakdown beside the hops themselves.
const (
	segBRASS = "brass-update-to-send" // brass.deliver start → burst.flush end, same host
	segPush  = "send-to-device"       // burst.flush start → device.apply end, same stream
	segTotal = "total"                // was.publish start → device.apply end
)

// spanRun is one traced LVC run as Table 3 and Fig 9 read it.
type spanRun struct {
	complete int // traces covering trace.EdgePathHops
	evicted  int64
	seg      *trace.Breakdown // per hop, and per seg* segment
}

func newSpanRun(plane *trace.Plane) *spanRun {
	spans := plane.Gather()
	r := &spanRun{evicted: plane.Evicted(), seg: trace.NewBreakdown()}
	r.seg.Record(spans)
	for _, t := range trace.Assemble(spans) {
		if t.Covers(trace.EdgePathHops...) {
			r.complete++
		}
		var published time.Time
		arrived := map[string]time.Time{} // host → brass.deliver start
		sent := map[string]time.Time{}    // stream → burst.flush start
		for _, d := range t.Spans {
			switch d.Hop {
			case trace.HopPublish:
				published = d.Start
			case trace.HopDeliver:
				arrived[d.Attr("host")] = d.Start
			case trace.HopFlush:
				sent[d.Attr("stream")] = d.Start
			}
		}
		observe := func(seg string, from time.Time, to time.Time) {
			if !from.IsZero() {
				r.seg.Hist(seg).Observe(to.Sub(from))
			}
		}
		for _, d := range t.Spans {
			switch d.Hop {
			case trace.HopFlush:
				observe(segBRASS, arrived[d.Attr("host")], d.End)
			case trace.HopApply:
				observe(segPush, sent[d.Attr("stream")], d.End)
				observe(segTotal, published, d.End)
			}
		}
	}
	return r
}

// LiveLatency is the pair of traced LVC runs that Table 3 and Fig 9 both
// read: one unranked, one with the WAS holding each comment for
// RankingHold.
type LiveLatency struct {
	Unranked, Ranked *spanRun
	Err              error
}

// MeasureLatency makes LiveLatency's two runs on the live stack, 3 viewers ×
// 20 comments each.
func MeasureLatency(seed int64) LiveLatency {
	unranked, err := TracedLVCRun(seed, latencyViewers, latencyEvents, 1, nil)
	if err != nil {
		return LiveLatency{Err: fmt.Errorf("unranked run: %w", err)}
	}
	ranked, err := TracedLVCRun(seed, latencyViewers, latencyEvents, 1, RankingHold)
	if err != nil {
		return LiveLatency{Err: fmt.Errorf("ranked run: %w", err)}
	}
	return LiveLatency{Unranked: newSpanRun(unranked), Ranked: newSpanRun(ranked)}
}

// Table3 reports the paper's sub-operation latencies as the trace spans of
// l's runs measured them. The ranked publish row is the RankingHold input
// read back through the stack; the µs rows are this stack's own time, with
// no network or backend latency modelled.
func Table3(l LiveLatency) Result {
	r := Result{ID: "table3", Title: "Latency of Bladerunner sub-operations (means; live-stack trace spans)"}
	if l.Err != nil {
		r.Err = l.Err
		return r
	}
	u, k := l.Unranked.seg, l.Ranked.seg
	mean := func(b *trace.Breakdown, seg string) string { return dur(b.Hist(seg).Mean()) }
	fanout := u.Hist(trace.HopFanout)
	r.AddRow("WAS update -> publish (LVC, ranked)", "2000ms", mean(k, trace.HopPublish),
		fmt.Sprintf("was.publish; input: the ranking hold (mean %v, min %v)", RankingHold.MeanVal, RankingHold.Min))
	r.AddRow("WAS update -> publish (unranked)", "240ms", mean(u, trace.HopPublish), "was.publish")
	r.AddRow("Pylon publish -> BRASSes (<10k subs)", "100ms", dur(fanout.Mean()),
		fmt.Sprintf("pylon.fanout; p90=%s p99=%s (paper: 160ms/310ms)",
			dur(fanout.Percentile(90)), dur(fanout.Percentile(99))))
	r.AddRow("Pylon publish -> BRASSes (>=10k subs)", "109ms", "-",
		fmt.Sprintf("not reproduced: %d viewers reach at most %d hosts", latencyViewers, latencyViewers))
	r.AddRow("BRASS update -> device send", "76ms", mean(u, segBRASS),
		fmt.Sprintf("brass.deliver start -> burst.flush end, incl. the wait for a %v pop; WAS query portion (brass.fetch) %s (paper: 60ms)",
			lvcRateLimit, mean(u, trace.HopFetch)))
	r.AddRow("subscription -> replicated on Pylon", "73ms", "-", "not reproduced: no span covers the stream open")
	r.AddRow("device subscribe (NA+EU)", "490ms", "-", "not reproduced: mobile-network time, devices here are in-process")
	r.AddRow("device subscribe (all countries)", "970ms", "-", "not reproduced: as above")
	r.AddRow("complete traces (unranked / ranked)", "-",
		fmt.Sprintf("%d/%d / %d/%d", l.Unranked.complete, latencyEvents, l.Ranked.complete, latencyEvents),
		fmt.Sprintf("cover publish -> fanout -> fetch -> flush -> relay -> apply; %d viewers", latencyViewers))
	r.AddRow("spans evicted (unranked / ranked)", "-",
		fmt.Sprintf("%d / %d", l.Unranked.evicted, l.Ranked.evicted), "0: the collector rings held both runs")
	return r
}

// Figure9 reports the per-hop latency CDFs of l's runs, ranked against
// unranked: where the paper contrasts TypingIndicator with LVC, the
// difference here is the one the ranking hold makes.
func Figure9(l LiveLatency) Result {
	r := Result{ID: "fig9", Title: "Update latency per hop: ranked vs unranked LVC (live-stack trace spans)"}
	if l.Err != nil {
		r.Err = l.Err
		return r
	}
	for _, s := range []struct{ label, seg, paper, note string }{
		{"publish (was.publish)", trace.HopPublish, "-", "ranked: the ranking hold"},
		{"Pylon -> BRASSes (pylon.fanout)", trace.HopFanout, "-", ""},
		{"BRASS update -> send", segBRASS, "-", fmt.Sprintf("brass.deliver start -> burst.flush end, incl. the wait for a %v pop", lvcRateLimit)},
		{"send -> device", segPush, "-", "burst.flush start -> device.apply end: 2 proxies and the device"},
		{"total", segTotal, "<1s / >3s", "paper: TypingIndicator / LVC"},
	} {
		uh, kh := l.Unranked.seg.Hist(s.seg), l.Ranked.seg.Hist(s.seg)
		r.AddRow(s.label+" p50 (unranked / ranked)", s.paper,
			dur(uh.Percentile(50))+" / "+dur(kh.Percentile(50)), s.note)
		r.AddSeries("unranked/"+s.seg, cdfSeries(uh))
		r.AddSeries("ranked/"+s.seg, cdfSeries(kh))
	}
	return r
}

// dur renders d to three significant digits.
func dur(d time.Duration) string {
	unit := time.Duration(1)
	for d >= 1000*unit {
		unit *= 10
	}
	return d.Round(unit).String()
}

// cdfSeries renders a histogram as (fraction, milliseconds) CDF points,
// matching the figure's axes.
func cdfSeries(h *metrics.Histogram[time.Duration]) []SeriesPoint {
	pts := h.CDF(100)
	out := make([]SeriesPoint, len(pts))
	for i, p := range pts {
		out[i] = SeriesPoint{X: p.Fraction, Y: float64(p.Value) / float64(time.Millisecond)}
	}
	return out
}
