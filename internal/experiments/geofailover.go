package experiments

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/faults"
	"bladerunner/internal/metrics"
	"bladerunner/internal/region"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
)

// GeoFailover measures the multi-region plane's disaster path on the live
// stack: a fleet of messenger streams homed in one region loses that whole
// region, and each stream must be rewritten onto a healthy one (§4's
// repair-from-stored-request axiom crossing the region boundary). Reported:
//
//   - per-stream failover time — region cut until the first payload
//     authored AFTER the cut renders on the device — as a CDF, and
//   - the cross-region replication lag distribution the event plane
//     sustained while streams were being served remotely, as a CDF.
//
// The run is live (real TAO/Pylon/WAS/BRASS/BURST over in-process pipes
// with sampled inter-region latency), so the failover times measure the
// actual recovery machinery — device backoff, POP rotation, sticky-BRASS
// rewrite, messenger catch-up — not a model of it.
func GeoFailover(seed int64) Result {
	const (
		receivers = 12
		victim    = "eu-west"
		tick      = 2 * time.Millisecond
		deadline  = 15 * time.Second
	)
	sched := sim.RealClock{}
	r := Result{ID: "geofailover", Title: fmt.Sprintf(
		"Geo-failover: %d streams lose region %s (live stack, 3 regions)", receivers, victim)}

	cfg := core.DefaultConfig()
	cfg.Regions = []string{"us-east", "eu-west", "ap-south"}
	cfg.POPs = 3
	cfg.Graph.Users = 100
	cfg.Graph.BlockProb = 0
	cfg.Geo = &region.Config{
		Latency: sim.Uniform{Lo: 100 * time.Microsecond, Hi: 500 * time.Microsecond},
		ReplLag: sim.Uniform{Lo: 1 * time.Millisecond, Hi: 4 * time.Millisecond},
		Seed:    seed,
	}
	c := core.MustNewCluster(cfg, nil)
	defer c.Close()
	fn := faults.NewFaultNetwork(c.Net, nil)
	rf := faults.NewRegionFaults(fn, c.Gate, c.Topo)

	// Author homed in the primary region; receivers homed in the victim.
	author := c.NewDevice(socialgraph.UserID(90))
	defer author.Close()

	type recvState struct {
		dev    *device.Device
		st     *device.Stream
		thread uint64
		// maxSeq is the largest mailbox seq rendered; recoveredAt is set
		// when the first post-cut payload (seq >= 2) lands.
		mu          sync.Mutex
		maxSeq      uint64
		recoveredAt time.Duration
	}
	var cutAt time.Time // set (before the region cut) before watchers read it
	var states []*recvState
	var wg sync.WaitGroup
	defer func() {
		for _, s := range states {
			s.dev.Close()
		}
		wg.Wait()
	}()
	for i := 0; i < receivers; i++ {
		uid := socialgraph.UserID(3*i + 1) // uid%3 == 1 → homed eu-west
		s := &recvState{dev: c.NewDeviceVia(fn, device.Config{
			User:        uid,
			Backoff:     faults.BackoffPolicy{Base: 10 * time.Millisecond, Max: 160 * time.Millisecond},
			BackoffSeed: seed*1000 + int64(uid),
		})}
		states = append(states, s)
		if err := s.dev.Connect(); err != nil {
			r.Err = err
			return r
		}
		st, err := s.dev.Subscribe(apps.AppMessenger, "messenger", nil)
		if err != nil {
			r.Err = err
			return r
		}
		s.st = st
		out, err := author.Mutate(fmt.Sprintf(`createThread(members: "90,%d")`, uid))
		if err != nil {
			r.Err = err
			return r
		}
		if err := json.Unmarshal(out, &s.thread); err != nil {
			r.Err = fmt.Errorf("createThread replied %q: %w", out, err)
			return r
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for delta, ok := st.Next(); ok; delta, ok = st.Next() {
				if delta.Type != burst.DeltaPayload {
					continue
				}
				var m apps.MessagePayload
				_ = json.Unmarshal(delta.Payload, &m)
				s.mu.Lock()
				if m.Seq > s.maxSeq {
					s.maxSeq = m.Seq
				}
				if m.Seq >= 2 && s.recoveredAt == 0 {
					s.recoveredAt = sched.Now().Sub(cutAt)
				}
				s.mu.Unlock()
			}
		}()
	}

	servedFrom := func(s *recvState) string {
		return c.Gate.RegionOf(s.st.HeaderField(burst.HdrStickyBRASS))
	}
	// Settle: every stream served from its home region, baseline message
	// (seq 1 per thread) delivered end-to-end.
	waitUntil(sched, deadline, func() bool {
		for _, s := range states {
			if servedFrom(s) != victim {
				return false
			}
		}
		return true
	})
	for _, s := range states {
		if _, err := author.Mutate(fmt.Sprintf(
			`sendMessage(threadID: %d, text: "baseline")`, s.thread)); err != nil {
			r.Err = err
			return r
		}
	}
	waitUntil(sched, deadline, func() bool {
		for _, s := range states {
			s.mu.Lock()
			ok := s.maxSeq >= 1
			s.mu.Unlock()
			if !ok {
				return false
			}
		}
		return true
	})

	// Cut the victim region and keep authoring: each stream's failover
	// time is the gap until a post-cut payload renders on the device.
	cutAt = sched.Now()
	rf.CutRegion(victim)
	senderDone := make(chan struct{})
	var senderWG sync.WaitGroup
	senderWG.Add(1)
	go func() {
		defer senderWG.Done()
		for n := 0; ; n++ {
			select {
			case <-senderDone:
				return
			case <-sim.Timeout(sched, tick):
			}
			for _, s := range states {
				s.mu.Lock()
				pending := s.recoveredAt == 0
				s.mu.Unlock()
				if pending {
					_, _ = author.Mutate(fmt.Sprintf(
						`sendMessage(threadID: %d, text: "tick-%d")`, s.thread, n))
				}
			}
		}
	}()
	waitUntil(sched, deadline, func() bool {
		for _, s := range states {
			s.mu.Lock()
			ok := s.recoveredAt != 0
			s.mu.Unlock()
			if !ok {
				return false
			}
		}
		return true
	})
	close(senderDone)
	senderWG.Wait()

	failover := metrics.NewHistogram[time.Duration]()
	recovered := 0
	remoteServed := 0
	for _, s := range states {
		s.mu.Lock()
		if s.recoveredAt != 0 {
			recovered++
			failover.Observe(s.recoveredAt)
		}
		s.mu.Unlock()
		if r := servedFrom(s); r != "" && r != victim {
			remoteServed++
		}
	}
	// Snapshot replication lag BEFORE healing: post-heal backlog drains
	// carry partition-length waits that belong to the heal story, not the
	// steady cross-region lag distribution.
	replCDF := c.Plane.ReplLag.CDF(40)
	replP50 := c.Plane.ReplLag.Percentile(50)
	replP99 := c.Plane.ReplLag.Percentile(99)
	replDelivered := c.Plane.ReplDelivered.Value()

	rf.HealRegion(victim)
	healed := c.Plane.FlushWait(deadline)

	r.AddRow("streams failed over", "all (no session restart)",
		fmt.Sprintf("%d/%d", recovered, receivers),
		"post-cut payload rendered via a rewritten cross-region stream")
	r.AddRow("streams served cross-region after cut", "-",
		fmt.Sprintf("%d/%d", remoteServed, receivers), "sticky BRASS rewritten to a healthy region")
	if failover.Count() > 0 {
		r.AddRow("failover time p50", "-", failover.Percentile(50).Round(time.Millisecond).String(),
			"region cut → first post-cut payload on device")
		r.AddRow("failover time p95", "-", failover.Percentile(95).Round(time.Millisecond).String(), "")
		r.AddRow("failover time max", "-", failover.Max().Round(time.Millisecond).String(),
			"bounded by device backoff cap + catch-up")
	}
	r.AddRow("cross-region repl lag p50 / p99", "-",
		fmt.Sprintf("%v / %v", replP50.Round(100*time.Microsecond), replP99.Round(100*time.Microsecond)),
		fmt.Sprintf("%d events replicated during the outage (pre-heal)", replDelivered))
	r.AddRow("partition backlog drained after heal", "gap-free convergence",
		fmt.Sprintf("%v", healed), "Plane.FlushWait after HealRegion")
	if recovered < receivers || remoteServed < receivers || !healed {
		r.Err = fmt.Errorf("%d/%d streams failed over, %d/%d served cross-region, backlog drained: %v",
			recovered, receivers, remoteServed, receivers, healed)
	}

	fo := make([]SeriesPoint, 0, 40)
	for _, p := range failover.CDF(40) {
		fo = append(fo, SeriesPoint{X: p.Value.Seconds(), Y: p.Fraction})
	}
	r.AddSeries("failover_time_cdf", fo)
	rl := make([]SeriesPoint, 0, len(replCDF))
	for _, p := range replCDF {
		rl = append(rl, SeriesPoint{X: p.Value.Seconds(), Y: p.Fraction})
	}
	r.AddSeries("repl_lag_cdf", rl)
	return r
}
