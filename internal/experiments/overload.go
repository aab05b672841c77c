package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"bladerunner/internal/metrics"
	"bladerunner/internal/overload"
	"bladerunner/internal/sim"
)

// OverloadStorm measures the overload-control plane under a seeded
// hot-topic storm: a single hop (a BRASS instance loop in miniature,
// built from the REAL overload.Queue and overload.Admission the pipeline
// uses) services deliveries at a fixed rate while arrivals burst to 5x
// that rate for the storm window. Three postures are compared:
//
//   - unbounded: the pre-overload-plane behaviour — every arrival queues,
//     nothing sheds, and delivery latency grows with the backlog (the
//     delivered updates are stale by the time they drain; a "live" view
//     that lags the storm by tens of seconds).
//   - shed: the bounded queue drops oldest data deltas once full. Depth —
//     and therefore p99 delivery latency — stays bounded through the
//     storm, at the cost of counted sheds, and the hop signals
//     FlowDegraded/FlowRecovered so devices can resync what was dropped.
//   - shed+admission: an admission token bucket in front of the queue
//     absorbs the storm at ingress; the queue itself barely sheds.
//
// The run is a deterministic model composition on the discrete-event
// kernel: arrivals are a seeded Poisson-ish process, the server pops one
// item per service interval, and all time is virtual.
func OverloadStorm(seed int64) Result {
	const (
		baseRate    = 200.0  // arrivals/sec outside the storm
		stormRate   = 5000.0 // hot-topic storm arrival rate
		serviceRate = 1000.0 // hop service rate
		warmup      = 5 * time.Second
		stormDur    = 10 * time.Second
		cooldown    = 5 * time.Second
		queueCap    = 1024
		admitRate   = 950.0 // ingress budget just under the service rate
		admitBurst  = 256.0
		depthBucket = 250 * time.Millisecond
	)
	horizon := warmup + stormDur + cooldown

	type outcome struct {
		arrivals   int
		delivered  int
		queueSheds int64
		admSheds   int64
		maxDepth   int
		p50, p99   time.Duration
		flips      int64 // degraded+recovered transitions
		drainedAt  time.Duration
		curve      []SeriesPoint
	}

	run := func(capacity int, admission bool) outcome {
		eng := sim.NewEngine(figStart)
		rng := rand.New(rand.NewSource(seed))
		q := overload.NewQueue[time.Time](capacity)
		var adm *overload.Admission
		if admission {
			adm = overload.NewAdmission(admitRate, admitBurst, eng, seed)
		}
		lat := metrics.NewHistogram[time.Duration]()
		depth := metrics.NewTimeSeries(figStart, depthBucket, int(horizon/depthBucket)+1)

		var o outcome
		stormEnd := figStart.Add(warmup + stormDur)

		// Arrival process: exponential interarrivals at the phase's rate.
		var arrive func()
		arrive = func() {
			now := eng.Now()
			since := now.Sub(figStart)
			if since >= horizon {
				return
			}
			rate := baseRate
			if since >= warmup && since < warmup+stormDur {
				rate = stormRate
			}
			o.arrivals++
			// A nil *Admission admits everything for free (the disabled
			// configuration), so one call covers all three postures.
			if adm.Allow() {
				q.Push(now, overload.Data)
				if d := q.Len(); d > o.maxDepth {
					o.maxDepth = d
				}
			}
			eng.After(time.Duration(rng.ExpFloat64()/rate*float64(time.Second)), arrive)
		}
		eng.After(0, arrive)

		// Server: one pop per service interval; latency is enqueue→pop.
		interval := time.Duration(float64(time.Second) / serviceRate)
		var serve func()
		serve = func() {
			now := eng.Now()
			if enq, _, ok := q.Pop(); ok {
				o.delivered++
				lat.Observe(now.Sub(enq))
				if now.After(stormEnd) {
					o.drainedAt = now.Sub(stormEnd)
				}
			}
			depth.Add(now, float64(q.Len()))
			if now.Sub(figStart) < horizon || q.Len() > 0 {
				eng.After(interval, serve)
			}
		}
		eng.After(interval, serve)
		eng.Run()

		o.queueSheds = q.ShedData.Value()
		if adm != nil {
			o.admSheds = adm.Shed.Value()
		}
		o.flips = q.Degraded.Value() + q.Recovered.Value()
		o.p50 = lat.Percentile(50)
		o.p99 = lat.Percentile(99)
		for i := 0; i < depth.Buckets(); i++ {
			n := depth.Count(i)
			if n == 0 {
				continue
			}
			o.curve = append(o.curve, SeriesPoint{
				X: depth.BucketTime(i).Sub(figStart).Seconds(),
				Y: depth.Sum(i) / float64(n), // mean depth in the bucket
			})
		}
		return o
	}

	unbounded := run(0, false)
	shed := run(queueCap, false)
	admitted := run(queueCap, true)

	r := Result{ID: "overload", Title: fmt.Sprintf(
		"Overload storm: %.0fx service rate for %v (unbounded vs shed vs shed+admission)",
		stormRate/serviceRate, stormDur)}
	ms := func(d time.Duration) string {
		if d >= time.Second {
			return fmt.Sprintf("%.2fs", d.Seconds())
		}
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	}
	r.AddRow("p99 delivery latency, unbounded", "-", ms(unbounded.p99),
		"backlog grows for the whole storm; \"live\" updates arrive seconds late")
	r.AddRow("p99 delivery latency, shed", "-", ms(shed.p99),
		fmt.Sprintf("bounded by queue cap %d / service rate", queueCap))
	r.AddRow("p99 delivery latency, shed+admission", "-", ms(admitted.p99),
		"ingress bucket absorbs the storm before it queues")
	r.AddRow("p99 reduction vs unbounded", "-",
		fmt.Sprintf("%.0fx", float64(unbounded.p99)/float64(shed.p99)),
		"the bound the plane exists to enforce")
	r.AddRow("p50 delivery latency (unbounded/shed/admit)", "-",
		fmt.Sprintf("%s / %s / %s", ms(unbounded.p50), ms(shed.p50), ms(admitted.p50)), "")
	r.AddRow("max queue depth, unbounded", "-", fmt.Sprintf("%d", unbounded.maxDepth),
		"≈ storm excess × duration: memory growth a real host cannot sustain")
	r.AddRow("max queue depth, shed", "-", fmt.Sprintf("%d", shed.maxDepth), "")
	r.AddRow("max queue depth, shed+admission", "-", fmt.Sprintf("%d", admitted.maxDepth), "")
	r.AddRow("data deltas shed (queue)", "-",
		fmt.Sprintf("%d / %d / %d", unbounded.queueSheds, shed.queueSheds, admitted.queueSheds),
		"every shed is counted and signalled; devices resync the gap")
	r.AddRow("arrivals shed at admission", "-", fmt.Sprintf("%d", admitted.admSheds),
		"shed before any queue work (cheapest place to drop)")
	r.AddRow("flow signal transitions, shed", "-", fmt.Sprintf("%d", shed.flips),
		"FlowDegraded/FlowRecovered episodes observed by stream participants")
	r.AddRow("post-storm drain time (unbounded/shed)", "-",
		fmt.Sprintf("%s / %s", ms(unbounded.drainedAt), ms(shed.drainedAt)),
		"time after storm end until the last backlogged delivery")
	r.AddRow("delivered (unbounded/shed/admit)", "-",
		fmt.Sprintf("%d / %d / %d of %d", unbounded.delivered, shed.delivered,
			admitted.delivered, unbounded.arrivals), "")
	r.AddSeries("depth-unbounded", unbounded.curve)
	r.AddSeries("depth-shed", shed.curve)
	r.AddSeries("depth-shed-admission", admitted.curve)
	return r
}
