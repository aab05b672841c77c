package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"bladerunner/internal/sim"
)

// passDeadline bounds one pass. A closed loop that loses a delivery never
// finishes on its own; the watchdog turns that into a reported failure.
const passDeadline = 150 * time.Second

// segmentStats is what one measured segment yields.
type segmentStats struct {
	wall       time.Duration
	cpu        time.Duration // process user+sys, generator included
	mallocs    uint64
	deliveries int64
	lat        quantiles // µs
	rtt        quantiles // µs; n == 0 when the segment opened no stream
}

type quantiles struct {
	n             int
	p50, p90, p99 float64
}

// passResult is everything one pass (build, set up, warm up, run the
// measured segments, check) produced.
type passResult struct {
	setup    time.Duration
	setupRTT []int64 // ns, one per set-up stream open
	segs     []segmentStats

	heapLiveMB float64
	gcCycles   uint32
	gcCPU      time.Duration
	cpu        time.Duration // over the measured segments

	attempted int64
	fail      failures

	layer layerCounts   // the layers' own counters over the whole pass
	tr    *tracer       // nil for untraced passes
	trace *traceSummary // nil for untraced passes
}

func (r *passResult) deliveries() (n int64) {
	for _, s := range r.segs {
		n += s.deliveries
	}
	return n
}

type snapshot struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	numGC   uint32
	gcCPU   time.Duration
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	s := snapshot{at: sim.RealClock{}.Now(), cpu: processCPU(), mallocs: ms.Mallocs, numGC: ms.NumGC}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = time.Duration(gc[0].Value.Float64() * float64(time.Second))
	}
	return s
}

// quantilesOf sorts ns samples in place and reports µs percentiles.
func quantilesOf(ns []int64) quantiles {
	if len(ns) == 0 {
		return quantiles{}
	}
	slices.Sort(ns)
	at := func(q float64) float64 { return float64(ns[int(q*float64(len(ns)-1))]) / 1e3 }
	return quantiles{n: len(ns), p50: at(0.50), p90: at(0.90), p99: at(0.99)}
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles returns the first quartile, median and third quartile by the
// method Python's statistics.quantiles(v, n=4) uses (exclusive).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// runPass builds a cluster for sc, sets the streams up, warms up, runs the
// measured segments, checks the reference and tears the cluster down.
// traced slots the timing wrappers into the seams.
func runPass(sc *script, traced bool) (*passResult, error) {
	res := &passResult{}
	if traced {
		res.tr = newTracer()
	}
	clock := sim.RealClock{}
	begin := clock.Now()

	cl, err := buildCluster(sc, res.tr)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	g, err := newGenerator(sc, cl, res.tr)
	if err != nil {
		return nil, err
	}
	defer g.close()
	disarm := clock.After(passDeadline, func() { close(g.abort) })
	defer disarm()

	finish := func(err error) (*passResult, error) {
		res.attempted, res.fail = g.check()
		res.layer = collectLayerCounts(cl, g)
		res.trace = res.tr.summarize()
		return res, err
	}

	if err := g.setup(); err != nil {
		return finish(err)
	}
	res.setup = clock.Now().Sub(begin)
	for _, s := range g.sessions {
		res.setupRTT = append(res.setupRTT, s.rtt...)
		s.rtt = s.rtt[:0]
	}

	if err := g.runSegment(sc.warmup); err != nil {
		return finish(err)
	}
	for _, s := range g.sessions {
		s.lat, s.rtt, s.deliveries = s.lat[:0], s.rtt[:0], 0
	}

	runtime.GC()
	first := takeSnapshot()
	before := first
	for _, seg := range sc.segments {
		err := g.runSegment(seg)
		after := takeSnapshot()
		if err != nil {
			return finish(err)
		}
		st := segmentStats{
			wall:    after.at.Sub(before.at),
			cpu:     after.cpu - before.cpu,
			mallocs: after.mallocs - before.mallocs,
		}
		var lat, rtt []int64
		for _, s := range g.sessions {
			st.deliveries += s.deliveries
			lat = append(lat, s.lat...)
			rtt = append(rtt, s.rtt...)
			s.lat, s.rtt, s.deliveries = s.lat[:0], s.rtt[:0], 0
		}
		st.lat, st.rtt = quantilesOf(lat), quantilesOf(rtt)
		res.segs = append(res.segs, st)
		// Sorting the samples is the benchmark's own work: leave it out of
		// the next segment's window.
		before = takeSnapshot()
	}
	res.gcCycles = before.numGC - first.numGC
	res.gcCPU = before.gcCPU - first.gcCPU
	for _, s := range res.segs {
		res.cpu += s.cpu
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapLiveMB = float64(ms.HeapInuse) / (1 << 20)
	return finish(nil)
}

// perSegment extracts one number from every segment.
func (r *passResult) perSegment(f func(segmentStats) float64) []float64 {
	out := make([]float64, len(r.segs))
	for i, s := range r.segs {
		out[i] = f(s)
	}
	return out
}

func throughput(s segmentStats) float64 { return float64(s.deliveries) / s.wall.Seconds() }

func cpuPerDelivery(s segmentStats) float64 {
	return float64(s.cpu.Microseconds()) / float64(s.deliveries)
}

// subscribeRTT is the pass's median subscribe round trip, µs: the loaded one
// from the segments that opened streams (focus_churn), otherwise the
// unloaded one from set-up.
func (r *passResult) subscribeRTT() float64 {
	var loaded []float64
	for _, s := range r.segs {
		if s.rtt.n > 0 {
			loaded = append(loaded, s.rtt.p50)
		}
	}
	if len(loaded) > 0 {
		return median(loaded)
	}
	return quantilesOf(slices.Clone(r.setupRTT)).p50
}

// endToEnd folds a run's passes into the end-to-end metrics, gated and
// timed: one sample per pass (per segment, for passes with several),
// reduced by the median, which discards interference bursts shorter than
// half the run.
func endToEnd(passes []*passResult) map[string]float64 {
	perSegment := func(f func(segmentStats) float64) []float64 {
		var v []float64
		for _, r := range passes {
			v = append(v, r.perSegment(f)...)
		}
		return v
	}
	perPass := func(f func(*passResult) float64) []float64 {
		v := make([]float64, len(passes))
		for i, r := range passes {
			v[i] = f(r)
		}
		return v
	}
	samples := map[string][]float64{
		"setup_s": perPass(func(r *passResult) float64 { return r.setup.Seconds() }),
		"allocs_per_delivery": perSegment(func(s segmentStats) float64 {
			return float64(s.mallocs) / float64(s.deliveries)
		}),
		"heap_live_mb": perPass(func(r *passResult) float64 { return r.heapLiveMB }),

		"e2e.deliveries_per_s":        perSegment(throughput),
		"e2e.delivery_latency_p50_us": perSegment(func(s segmentStats) float64 { return s.lat.p50 }),
		"e2e.delivery_latency_p90_us": perSegment(func(s segmentStats) float64 { return s.lat.p90 }),
		"e2e.subscribe_rtt_p50_us":    perPass((*passResult).subscribeRTT),
		"e2e.cpu_us_per_delivery":     perSegment(cpuPerDelivery),
	}
	values := make(map[string]float64, len(samples))
	for name, v := range samples {
		values[name] = median(v)
	}
	return values
}

// describe says how much the passes measured.
func describe(passes []*passResult) string {
	var segs, samples, opens int
	var wall time.Duration
	for _, r := range passes {
		opens += len(r.setupRTT)
		for _, s := range r.segs {
			segs++
			samples += s.lat.n
			wall += s.wall
			opens += s.rtt.n
		}
	}
	return fmt.Sprintf("%d passes, %d segments, %.1f s measured, %d latency samples (%d per segment), %d subscribe round trips",
		len(passes), segs, wall.Seconds(), samples, samples/max(segs, 1), opens)
}
