package main

import "slices"

// metricDef names one metric the benchmark reports. The tables below are
// the single definition of the benchmark's vocabulary; BENCHMARK.json at
// the repository root repeats them for the driver, and a test keeps the
// two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndMetrics are what a user of the system would see, and what a
// change is gated on. Every workload reports all of them from an untraced
// run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.10},
	{"allocs_per_delivery", "count", "lower", 0.03},
	{"heap_live_mb", "MB", "lower", 0.05},
}

// timedMetrics are the end-to-end metrics that depend on the machine's
// speed. The box the benchmark was built on cannot resolve them to 0.10
// (README.md, "What is gated"), so they carry no bound: the untraced run
// prints them beside the gated ones, and the traced run reports them among
// the per-layer metrics.
var timedMetrics = []metricDef{
	{"e2e.deliveries_per_s", "1/s", "higher", 0},
	{"e2e.delivery_latency_p50_us", "us", "lower", 0},
	{"e2e.delivery_latency_p90_us", "us", "lower", 0},
	{"e2e.subscribe_rtt_p50_us", "us", "lower", 0},
	{"e2e.cpu_us_per_delivery", "us", "lower", 0},
}

// perLayerMetrics come from the traced run (-trace 1). They carry no
// bound: they say where a change landed, not whether it is acceptable.
var perLayerMetrics = append([]metricDef{
	{"was.mutate_self_us", "us", "lower", 0},
	{"was.mutations", "count", "lower", 0},
	{"tao.writes_per_mutation", "count", "lower", 0},
	{"was.visibility_us", "us", "lower", 0},
	{"was.visibility_calls", "count", "lower", 0},
	{"was.resolve_us", "us", "lower", 0},
	{"was.resolve_calls", "count", "lower", 0},
	{"tao.reads_per_delivery", "count", "lower", 0},
	{"pylon.publish_us", "us", "lower", 0},
	{"pylon.publish_self_us", "us", "lower", 0},
	{"pylon.subcache_hit_ratio", "ratio", "higher", 0},
	{"kvstore.views_per_publish", "count", "lower", 0},
	{"pylon.subscribe_us", "us", "lower", 0},
	{"pylon.unsubscribe_us", "us", "lower", 0},
	{"kvstore.writes_per_subscribe", "count", "lower", 0},
	{"brass.pylon_sub_dedups", "count", "higher", 0},
	{"brass.deliver_enqueue_us", "us", "lower", 0},
	{"brass.queue_wait_us", "us", "lower", 0},
	{"brass.payload_cache_hit_ratio", "ratio", "higher", 0},
	{"brass.coalesced_fetches", "count", "higher", 0},
	{"brass.filtered", "count", "lower", 0},
	{"brass.loop_overflows", "count", "lower", 0},
	{"durlog.appends_per_delivery", "count", "lower", 0},
	{"durlog.rotations", "count", "lower", 0},
	{"edge.downstream_us", "us", "lower", 0},
	{"burst.frames_per_delivery", "count", "lower", 0},
	{"burst.wire_bytes_per_delivery", "B", "lower", 0},
	{"burst.writes_per_delivery", "count", "lower", 0},
	{"edge.relay_bytes_per_delivery", "B", "lower", 0},
	{"edge.rewrites_relayed", "count", "lower", 0},
	{"ctrl.calls_per_delivery", "count", "lower", 0},
	{"ctrl.bytes_per_delivery", "B", "lower", 0},
	{"ctrl.writes_per_delivery", "count", "lower", 0},
	{"ctrl.publish_us", "us", "lower", 0},
	{"ctrl.deliver_us", "us", "lower", 0},
	{"ctrl.visibility_us", "us", "lower", 0},
	{"ctrl.resolve_us", "us", "lower", 0},
	{"ctrl.mutate_us", "us", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_cpu_share", "ratio", "lower", 0},
	{"e2e.delivery_latency_p99_us", "us", "lower", 0},
	{"e2e.segment_spread", "ratio", "lower", 0},
	{"e2e.segment_slope", "ratio", "higher", 0},
	{"e2e.single_proc_deliveries_per_s", "1/s", "higher", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}, timedMetrics...)

// layerCounts are the layers' own public counters, read once at the end of
// a pass, so they cover the whole pass: set-up, warm-up and segments.
type layerCounts struct {
	deliveries int64 // payload deltas the generator accepted, whole pass
	frames     int64 // batch frames the generator received, whole pass

	wasMutations, wasPrivacyChecks, wasPayloadFetches int64
	taoWrites, taoReads                               int64
	pylonPublishes, subCacheHits, subCacheLookups     int64
	pylonSubDedups                                    int64
	payloadCacheHits, payloadCacheLookups             int64
	coalescedFetches, filtered, loopOverflows         int64
	durlogAppends, durlogRotations                    int64
	rewritesRelayed                                   int64
}

func collectLayerCounts(cl *cluster, g *generator) layerCounts {
	var c layerCounts
	for _, s := range g.sessions {
		c.frames += s.frames.Load()
	}
	for _, st := range g.streams {
		c.deliveries += int64(st.next)
	}
	c.wasMutations = cl.was.Mutations.Value()
	c.wasPrivacyChecks = cl.was.PrivacyChecks.Value()
	c.wasPayloadFetches = cl.was.PayloadFetches.Value()
	c.taoWrites = cl.tao.Stats().Writes.Value()
	c.taoReads = cl.tao.Stats().Reads()
	c.pylonPublishes = cl.pylon.Publishes.Value()
	c.subCacheHits = cl.pylon.SubCacheHits.Value()
	c.subCacheLookups = c.subCacheHits + cl.pylon.SubCacheMiss.Value() + cl.pylon.SubCacheStale.Value()
	for _, h := range cl.hosts {
		c.pylonSubDedups += h.PylonSubDedups.Value()
		c.payloadCacheHits += h.PayloadCacheHits.Value()
		c.payloadCacheLookups += h.PayloadCacheHits.Value() + h.PayloadCacheMisses.Value()
		c.coalescedFetches += h.CoalescedFetches.Value()
		c.filtered += h.Filtered.Value()
		c.loopOverflows += h.LoopOverflows.Value()
		if l := h.DurLog(); l != nil {
			c.durlogAppends += l.Appends.Value()
			c.durlogRotations += l.Rotations.Value()
		}
	}
	for _, p := range append(slices.Clone(cl.pops), cl.proxies...) {
		c.rewritesRelayed += p.RewritesRelayed.Value()
	}
	return c
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer folds a traced pass, the untraced pass of the same size, the
// long one-cluster pass, the single-processor pass (hot_fanout only) and,
// for wire workloads, a traced in-process pass of the same inputs into the
// per-layer metrics.
func perLayer(traced, untraced, aging, single, inproc *passResult) map[string]float64 {
	c := traced.layer
	tr := traced.trace
	st := tr.spans
	m := map[string]float64{
		"was.mutate_self_us":      st[spanMutate].selfUS(),
		"was.mutations":           float64(c.wasMutations),
		"tao.writes_per_mutation": ratio(c.taoWrites, c.wasMutations),

		"was.visibility_us":      st[spanVisibility].meanUS(),
		"was.visibility_calls":   float64(c.wasPrivacyChecks),
		"was.resolve_us":         st[spanResolve].meanUS(),
		"was.resolve_calls":      float64(c.wasPayloadFetches),
		"tao.reads_per_delivery": ratio(c.taoReads, c.deliveries),

		"pylon.publish_us":          st[spanPublish].meanUS(),
		"pylon.publish_self_us":     st[spanPublish].selfUS(),
		"pylon.subcache_hit_ratio":  ratio(c.subCacheHits, c.subCacheLookups),
		"kvstore.views_per_publish": ratio(tr.kvViews, c.pylonPublishes),

		"pylon.subscribe_us":           st[spanSubscribe].meanUS(),
		"pylon.unsubscribe_us":         st[spanUnsubscribe].meanUS(),
		"kvstore.writes_per_subscribe": ratio(tr.kvWrites, st[spanSubscribe].count+st[spanUnsubscribe].count),
		"brass.pylon_sub_dedups":       float64(c.pylonSubDedups),

		"brass.deliver_enqueue_us":      st[spanDeliver].meanUS(),
		"brass.queue_wait_us":           st[spanQueueWait].meanUS(),
		"brass.payload_cache_hit_ratio": ratio(c.payloadCacheHits, c.payloadCacheLookups),
		"brass.coalesced_fetches":       float64(c.coalescedFetches),
		"brass.filtered":                float64(c.filtered),
		"brass.loop_overflows":          float64(c.loopOverflows),

		"durlog.appends_per_delivery": ratio(c.durlogAppends, c.deliveries),
		"durlog.rotations":            float64(c.durlogRotations),

		"edge.downstream_us":            st[spanDownstream].meanUS(),
		"burst.frames_per_delivery":     ratio(c.frames, c.deliveries),
		"burst.wire_bytes_per_delivery": ratio(tr.links[linkDevice].bytes, c.deliveries),
		"burst.writes_per_delivery":     ratio(tr.links[linkDevice].writes, c.deliveries),
		"edge.relay_bytes_per_delivery": ratio(tr.links[linkRelay].bytes, c.deliveries),
		"edge.rewrites_relayed":         float64(c.rewritesRelayed),

		// Control-socket cost: zero unless the workload runs on the wire.
		"ctrl.calls_per_delivery":  0,
		"ctrl.bytes_per_delivery":  ratio(tr.links[linkCtrl].bytes, c.deliveries),
		"ctrl.writes_per_delivery": ratio(tr.links[linkCtrl].writes, c.deliveries),
		"ctrl.publish_us":          0,
		"ctrl.deliver_us":          0,
		"ctrl.visibility_us":       0,
		"ctrl.resolve_us":          0,
		"ctrl.mutate_us":           0,

		"go.gc_cycles":    float64(untraced.gcCycles),
		"go.gc_cpu_share": ratio(int64(untraced.gcCPU), int64(untraced.cpu)),
		"e2e.delivery_latency_p99_us": median(untraced.perSegment(func(s segmentStats) float64 {
			return s.lat.p99
		})),
		"e2e.single_proc_deliveries_per_s": 0, // hot_fanout only
		"trace.overhead_share": median(traced.perSegment(cpuPerDelivery))/
			median(untraced.perSegment(cpuPerDelivery)) - 1,
	}
	// One cluster, eight segments back to back: how far apart the segments
	// lie, and how much slower the last three are than the first three.
	segs := aging.perSegment(throughput)
	q1, q2, q3 := quartiles(segs)
	m["e2e.segment_spread"] = (q3 - q1) / q2
	m["e2e.segment_slope"] = median(segs[len(segs)-3:])/median(segs[:3]) - 1
	if single != nil {
		m["e2e.single_proc_deliveries_per_s"] = median(single.perSegment(throughput))
	}
	e2e := endToEnd([]*passResult{untraced})
	for _, d := range timedMetrics {
		m[d.name] = e2e[d.name]
	}

	if inproc != nil {
		// The same seam spans, wire minus in-process: what each control
		// socket adds to the call it carries. Every seam call on the wire
		// is one control-protocol call (deliver is a notification).
		local := inproc.trace.spans
		calls := st[spanMutate].count + st[spanPublish].count + st[spanDeliver].count +
			st[spanVisibility].count + st[spanResolve].count +
			st[spanSubscribe].count + st[spanUnsubscribe].count
		m["ctrl.calls_per_delivery"] = ratio(calls, c.deliveries)
		m["ctrl.mutate_us"] = st[spanMutate].selfUS() - local[spanMutate].selfUS()
		m["ctrl.publish_us"] = st[spanPublish].meanUS() - local[spanPublish].meanUS()
		m["ctrl.deliver_us"] = tr.publishToDeliver - inproc.trace.publishToDeliver
		m["ctrl.visibility_us"] = st[spanVisibility].meanUS() - local[spanVisibility].meanUS()
		m["ctrl.resolve_us"] = st[spanResolve].meanUS() - local[spanResolve].meanUS()
	}
	return m
}
