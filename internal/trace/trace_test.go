package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"bladerunner/internal/sim"
)

func TestSamplerDeterminism(t *testing.T) {
	a := NewSampler(42, 1)
	b := NewSampler(42, 1)
	for i := 0; i < 100; i++ {
		ia, ib := a.Trace(), b.Trace()
		if ia == 0 {
			t.Fatalf("rate-1 sampler returned zero ID at %d", i)
		}
		if ia != ib {
			t.Fatalf("same-seed samplers diverged at %d: %x vs %x", i, ia, ib)
		}
	}
	if c := NewSampler(42, 7); c.Trace() == NewSampler(43, 1).Trace() {
		t.Fatalf("different seeds produced the same first ID")
	}
}

func TestSamplerRate(t *testing.T) {
	if s := NewSampler(1, 0); s != nil {
		t.Fatalf("rate 0 should return a nil sampler")
	}
	var nilSampler *Sampler
	if id := nilSampler.Trace(); id != 0 {
		t.Fatalf("nil sampler sampled: %x", id)
	}
	s := NewSampler(7, 0.1)
	sampled := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if s.Trace() != 0 {
			sampled++
		}
	}
	if sampled < n/20 || sampled > n/5 {
		t.Fatalf("rate 0.1 sampled %d of %d", sampled, n)
	}
}

func TestNilTracerAndZeroIDInactive(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(1, HopPublish, "")
	if sp.Active() {
		t.Fatalf("nil tracer span is active")
	}
	sp.Annotate("k", "v")
	sp.AnnotateInt("n", 1)
	sp.End() // must not panic

	p := NewPlane(Config{Rate: 1})
	sp = p.Tracer("proc").Start(0, HopPublish, "")
	if sp.Active() {
		t.Fatalf("zero-ID span is active")
	}
	sp.End()
	if got := len(p.Gather()); got != 0 {
		t.Fatalf("inactive spans were collected: %d", got)
	}
}

func TestZeroAllocsWhenDisabled(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(0, HopFanout, HopPublish)
		sp.Annotate("topic", "/LVC/1")
		sp.AnnotateInt("shard", 3)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates: %v allocs/op", allocs)
	}
}

func TestSpanCollectAndEndIdempotent(t *testing.T) {
	clock := sim.NewManualClock(time.Unix(100, 0))
	p := NewPlane(Config{Rate: 1, Seed: 1, Clock: clock})
	tr := p.Tracer("was")

	sp := tr.Start(0xbeef, HopPublish, "")
	sp.Annotate("topic", "/LVC/9")
	clock.Advance(3 * time.Millisecond)
	sp.End()
	sp.End() // idempotent: must not double-collect
	sp.Annotate("late", "ignored")

	spans := p.Gather()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	d := spans[0]
	if d.Trace != 0xbeef || d.Hop != HopPublish || d.Proc != "was" || d.Parent != "" {
		t.Fatalf("bad span identity: %+v", d)
	}
	if d.Duration() != 3*time.Millisecond {
		t.Fatalf("duration = %v, want 3ms", d.Duration())
	}
	if d.Attr("topic") != "/LVC/9" || d.Attr("late") != "" {
		t.Fatalf("bad attrs: %+v", d.Attrs)
	}
}

func TestCollectorRingBounds(t *testing.T) {
	c := NewCollector(4)
	for i := 1; i <= 6; i++ {
		c.add(SpanData{Trace: ID(i)})
	}
	snap := c.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(snap))
	}
	for i, d := range snap {
		if want := ID(i + 3); d.Trace != want {
			t.Fatalf("snapshot[%d] = %x, want %x (oldest-first)", i, d.Trace, want)
		}
	}
	if c.Evicted() != 2 {
		t.Fatalf("evicted = %d, want 2", c.Evicted())
	}
}

// pipelineSpans builds the full canonical hop set of one trace, as the real
// pipeline would emit it across processes.
func pipelineSpans(id ID, base time.Time) []SpanData {
	at := func(hop, proc, parent string, off, dur time.Duration, attrs ...Attr) SpanData {
		return SpanData{Trace: id, Hop: hop, Proc: proc, Parent: parent,
			Start: base.Add(off), End: base.Add(off + dur), Attrs: attrs}
	}
	ms := time.Millisecond
	return []SpanData{
		at(HopPublish, "was", "", 0, 10*ms, Attr{"topic", "/LVC/5"}),
		at(HopFanout, "pylon", HopPublish, 1*ms, 2*ms),
		at(HopDeliver, "brass-us-east-0", HopFanout, 3*ms, 5*ms),
		at(HopFetch, "brass-us-east-0", HopDeliver, 4*ms, 3*ms, Attr{"cache", "miss"}),
		at(HopPrivacy, "was", HopFetch, 4*ms, 1*ms),
		at(HopResolve, "was", HopFetch, 5*ms, 1*ms),
		at(HopFlush, "brass-us-east-0", HopFetch, 7*ms, 1*ms, Attr{"stream", "s1"}),
		at(HopRelay, "proxy-us-east-0", HopFlush, 8*ms, 1*ms, Attr{"stream", "s1"}),
		at(HopRelay, "pop-0", HopFlush, 9*ms, 1*ms, Attr{"stream", "s1"}),
		at(HopApply, "device-3", HopFlush, 10*ms, 1*ms, Attr{"stream", "s1"}),
	}
}

func TestAssembleBuildsPipelineTree(t *testing.T) {
	base := time.Unix(1000, 0)
	spans := pipelineSpans(0xabc, base)
	traces := Assemble(spans)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if !tr.Covers(HopPublish, HopFanout, HopDeliver, HopFetch, HopFlush, HopRelay, HopApply) {
		t.Fatalf("trace misses hops:\n%s", tr.Tree())
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Hop != HopPublish {
		t.Fatalf("want single %s root, got %+v", HopPublish, tr.Roots)
	}
	tree := tr.Tree()
	for _, want := range []string{
		"was.publish [was] topic=/LVC/5",
		"  pylon.fanout [pylon]",
		"      brass.fetch [brass-us-east-0] cache=miss",
		"          edge.relay [pop-0] stream=s1",
		"          device.apply [device-3] stream=s1",
	} {
		if !strings.Contains(tree, want+"\n") {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestAssembleCanonicalUnderReordering(t *testing.T) {
	base := time.Unix(1000, 0)
	spans := pipelineSpans(0xabc, base)
	spans = append(spans, pipelineSpans(0xdef, base.Add(time.Second))...)
	forward := Forest(Assemble(spans))

	reversed := make([]SpanData, len(spans))
	for i, d := range spans {
		reversed[len(spans)-1-i] = d
	}
	if got := Forest(Assemble(reversed)); got != forward {
		t.Fatalf("forest differs under span reordering:\n%s\nvs\n%s", forward, got)
	}
	if !strings.Contains(forward, "--- trace 0 ---") || !strings.Contains(forward, "--- trace 1 ---") {
		t.Fatalf("forest did not render both traces:\n%s", forward)
	}
}

func TestAssembleOrphanBecomesRoot(t *testing.T) {
	// Drop the publish + fanout spans: deliver's parent hop never arrives,
	// so it must surface as an extra root instead of vanishing.
	base := time.Unix(1000, 0)
	spans := pipelineSpans(0x77, base)[2:]
	traces := Assemble(spans)
	if len(traces) != 1 || len(traces[0].Roots) != 1 || traces[0].Roots[0].Hop != HopDeliver {
		t.Fatalf("orphan handling wrong: %+v", traces[0].Roots)
	}
}

func TestChromeExport(t *testing.T) {
	base := time.Unix(1000, 0)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, pipelineSpans(0xabc, base)); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	meta, complete := 0, 0
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Ts < 0 || ev.Pid < 1 || ev.Tid < 1 {
				t.Fatalf("bad X event: %+v", ev)
			}
			if ev.Args["trace"] != "0000000000000abc" {
				t.Fatalf("bad trace arg: %v", ev.Args["trace"])
			}
		}
	}
	// 6 distinct procs → 6 metadata events; 10 spans → 10 X events.
	if meta != 6 || complete != 10 {
		t.Fatalf("got %d metadata + %d complete events, want 6 + 10", meta, complete)
	}
}

func TestBreakdown(t *testing.T) {
	base := time.Unix(1000, 0)
	b := NewBreakdown()
	b.Record(pipelineSpans(0xabc, base))
	stats := b.Stats()
	if s := stats[HopPublish]; s.Count != 1 || s.Mean != 10*time.Millisecond {
		t.Fatalf("publish stat wrong: %+v", s)
	}
	if s := stats[HopRelay]; s.Count != 2 {
		t.Fatalf("relay count = %d, want 2 (two proxy hops)", s.Count)
	}
	table := b.Table()
	if !strings.Contains(table, HopPublish) || !strings.Contains(table, HopApply) {
		t.Fatalf("table missing hops:\n%s", table)
	}
	if strings.Index(table, HopPublish) > strings.Index(table, HopApply) {
		t.Fatalf("table not in pipeline order:\n%s", table)
	}
}

func TestPlaneGatherDeterministic(t *testing.T) {
	clock := sim.NewManualClock(time.Unix(0, 0))
	p := NewPlane(Config{Rate: 1, Clock: clock})
	// Register in non-sorted order; Gather must still come out sorted.
	for _, proc := range []string{"pylon", "was", "brass-0"} {
		sp := p.Tracer(proc).Start(1, HopPublish, "")
		sp.End()
	}
	spans := p.Gather()
	if len(spans) != 3 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Proc != "brass-0" || spans[1].Proc != "pylon" || spans[2].Proc != "was" {
		t.Fatalf("gather not sorted by proc: %s %s %s", spans[0].Proc, spans[1].Proc, spans[2].Proc)
	}
	var nilPlane *Plane
	if nilPlane.Tracer("x") != nil || nilPlane.Gather() != nil || nilPlane.Evicted() != 0 {
		t.Fatalf("nil plane not inert")
	}
}
