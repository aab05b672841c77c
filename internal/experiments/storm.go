package experiments

import (
	"fmt"
	"io"
	"time"

	"bladerunner/internal/edge"
	"bladerunner/internal/faults"
	"bladerunner/internal/metrics"
	"bladerunner/internal/sim"
)

// ReconnectStorm measures a mass-disconnect reconnect storm: one POP dies
// under a fleet of connected devices, heals after a fixed outage, and every
// device re-dials under a retry policy. It compares the fixed-delay policy
// (every device retries on the same schedule, so the fleet hammers the
// healed POP in lockstep) against the jittered exponential backoff the
// recovery paths now share, reporting the peak dial rate the POP absorbs and
// the time until the whole fleet is back.
//
// The run measures the real retry policies on the discrete-event kernel:
// devices are retry loops dialing through a FaultNetwork, so the whole
// storm is single-threaded and deterministic for a given seed.
func ReconnectStorm(seed int64) Result {
	const (
		devices = 2000
		outage  = 10 * time.Second
		base    = 500 * time.Millisecond
		bucket  = 250 * time.Millisecond
		horizon = 2 * time.Minute
	)
	// The storm's simulated start: the cut lands at T+0.
	start := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

	type outcome struct {
		peakRate float64       // dials/sec in the worst bucket
		peakAt   time.Duration // offset of the worst bucket
		attempts float64       // total dial attempts
		fullRec  time.Duration // when the last device reconnected
		curve    []SeriesPoint
	}

	run := func(policy faults.BackoffPolicy) outcome {
		eng := sim.NewEngine(start)
		fn := faults.NewFaultNetwork(edge.NewPipeNetwork(), eng)
		fn.Register("pop", func(rwc io.ReadWriteCloser) { _ = rwc.Close() })

		dials := metrics.NewTimeSeries(start, bucket, int(horizon/bucket))
		parent := faults.NewBackoff(policy, seed)
		var lastRec time.Duration

		for i := 0; i < devices; i++ {
			bo := parent.Child(int64(i) + 1)
			var attempt func()
			attempt = func() {
				dials.Inc(eng.Now())
				c, err := fn.Dial("pop")
				if err != nil {
					eng.After(bo.Next(), attempt)
					return
				}
				_ = c.Close()
				if rec := eng.Now().Sub(start); rec > lastRec {
					lastRec = rec
				}
			}
			// The cut at t=0 knocks every device off; each schedules its
			// first re-dial through its own backoff sequence.
			eng.After(bo.Next(), attempt)
		}
		new(faults.Plan).CutAt(0, "pop").HealAt(outage, "pop").Start(fn)

		eng.Run() // drains: every device stops retrying once it reconnects

		peak, idx := dials.Max()
		var curve []SeriesPoint
		for i := 0; i < dials.Buckets(); i++ {
			curve = append(curve, SeriesPoint{
				X: dials.BucketTime(i).Sub(start).Seconds(),
				Y: dials.Sum(i) / bucket.Seconds(),
			})
		}
		return outcome{
			peakRate: peak / bucket.Seconds(),
			peakAt:   time.Duration(idx) * bucket,
			attempts: dials.GrandTotal(),
			fullRec:  lastRec,
			curve:    curve,
		}
	}

	fixed := run(faults.BackoffPolicy{Base: base, Multiplier: 1, NoJitter: true})
	jittered := run(faults.BackoffPolicy{Base: base, Max: 8 * base, Multiplier: 2, Jitter: 0.5})

	r := Result{ID: "storm", Title: fmt.Sprintf(
		"Reconnect storm: %d devices, one POP down %v (fixed delay vs jittered backoff)",
		devices, outage)}
	rate := func(v float64) string { return fmt.Sprintf("%.0f/s", v) }
	r.AddRow("peak dial rate, fixed delay", "-", rate(fixed.peakRate),
		fmt.Sprintf("at T+%v: the fleet retries in lockstep", fixed.peakAt))
	r.AddRow("peak dial rate, jittered backoff", "-", rate(jittered.peakRate),
		fmt.Sprintf("at T+%v: jitter decorrelates the fleet", jittered.peakAt))
	r.AddRow("peak reduction", "-",
		fmt.Sprintf("%.1fx", fixed.peakRate/jittered.peakRate),
		"fixed peak / jittered peak")
	r.AddRow("dial attempts, fixed delay", "-", fmt.Sprintf("%.0f", fixed.attempts), "")
	r.AddRow("dial attempts, jittered backoff", "-", fmt.Sprintf("%.0f", jittered.attempts),
		"exponential growth retries less during the outage")
	r.AddRow("full fleet recovery, fixed delay", "-", fixed.fullRec.String(), "")
	r.AddRow("full fleet recovery, jittered backoff", "-", jittered.fullRec.String(),
		"bounded by the post-heal backoff step")
	r.AddSeries("fixed", fixed.curve)
	r.AddSeries("jittered", jittered.curve)
	return r
}
