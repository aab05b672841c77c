package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/trace"
)

// TracedLVCRun boots a fully wired cluster with the tracing plane sampling
// at rate, subscribes viewers to one live video through the full edge path
// (device → POP → reverse proxy → BRASS), and posts events comments from a
// non-viewer user. Each comment is pushed to every viewer before the next
// is posted, so every sampled mutation's spans are closed — publish through
// device apply — by the time the plane is gathered. cmd/brtrace drives its
// quickstart and lvc workloads through this same function.
func TracedLVCRun(seed int64, viewers, events int, rate float64) (*trace.Plane, error) {
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
	c.Apps.LVC.RateLimit = 5 * time.Millisecond
	c.Apps.LVC.RankBeforePublish = false
	c.Apps.LVC.MinScore = 0

	const videoID = 7
	sched := sim.RealClock{}

	// Viewers subscribe through the edge; a per-stream counter tracks how
	// many comment pushes each has applied.
	counters := make([]*int64, viewers)
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
		counters[i] = n
		go func() {
			for delta, ok := st.Next(); ok; delta, ok = st.Next() {
				if delta.Type == burst.DeltaPayload {
					atomic.AddInt64(n, 1)
				}
			}
		}()
	}
	if !c.Pylon.WaitForSubscriber(sched, apps.LVCTopic(videoID), 10*time.Second) {
		return nil, fmt.Errorf("tracehops: no BRASS subscribed to the video topic")
	}

	commenter := c.NewDevice(99)
	defer commenter.Close()
	for ev := 0; ev < events; ev++ {
		if _, err := commenter.Mutate(fmt.Sprintf(
			`postComment(videoID: %d, text: "comment %d")`, videoID, ev)); err != nil {
			return nil, err
		}
		want := int64(ev + 1)
		ok := WaitUntil(sched, 15*time.Second, func() bool {
			for _, n := range counters {
				if atomic.LoadInt64(n) < want {
					return false
				}
			}
			return true
		})
		if !ok {
			return nil, fmt.Errorf("tracehops: comment %d never reached every viewer", ev)
		}
	}
	c.Quiesce()
	return plane, nil
}

// WaitUntil polls cond through the scheduler until it holds or d elapses.
func WaitUntil(sched sim.Scheduler, d time.Duration, cond func() bool) bool {
	const step = time.Millisecond
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		if cond() {
			return true
		}
		sim.Sleep(sched, step)
	}
	return cond()
}

// TraceHops runs the traced LVC workload on the live stack and reports the
// per-hop latency breakdown the tracing plane measured, alongside trace
// completeness. The per-hop latencies are the measured decomposition of the
// end-to-end delivery latency whose distribution Fig 9 reports; the trace
// trees behind them are what cmd/brtrace renders.
func TraceHops(seed int64) Result {
	r := Result{ID: "tracehops", Title: "end-to-end tracing plane: per-hop latency breakdown (live stack)"}
	plane, err := TracedLVCRun(seed, 3, 20, 1)
	if err != nil {
		r.AddRow("error", "-", err.Error(), "")
		return r
	}
	spans := plane.Gather()
	traces := trace.Assemble(spans)
	complete := 0
	for _, t := range traces {
		if t.Covers(trace.EdgePathHops...) {
			complete++
		}
	}
	breakdown := trace.NewBreakdown()
	breakdown.Record(spans)
	stats := breakdown.Stats()
	for _, hop := range []string{
		trace.HopPublish, trace.HopFanout, trace.HopDeliver, trace.HopFetch,
		trace.HopPrivacy, trace.HopResolve, trace.HopFlush, trace.HopRelay, trace.HopApply,
	} {
		s, ok := stats[hop]
		if !ok {
			continue
		}
		r.AddRow("hop "+hop, "-",
			fmt.Sprintf("n=%d p50=%v p95=%v", s.Count, s.P50, s.P95),
			"cf. Fig 9 component latencies")
	}
	r.AddRow("traces assembled", "-", fmt.Sprintf("%d", len(traces)), "rate-1 sampling, 20 comments × 3 viewers")
	r.AddRow("complete edge-path traces", "-", fmt.Sprintf("%d", complete),
		"cover publish→fanout→fetch→flush→relay→apply")
	r.AddRow("spans evicted", "-", fmt.Sprintf("%d", plane.Evicted()),
		"0 means the collector rings held the whole run")
	return r
}
