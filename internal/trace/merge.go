package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"bladerunner/internal/metrics"
)

// Node is one span placed in an assembled trace tree.
type Node struct {
	SpanData
	Children []*Node
}

// Trace is the assembled cross-process view of one sampled mutation.
type Trace struct {
	ID    ID
	Roots []*Node
	Spans []SpanData // all spans of the trace, assembly order
}

// Assemble groups spans by trace ID and builds one tree per trace. A span
// attaches to the candidate parent whose Hop equals its Parent field,
// preferring (in order) a parent in the same process, then the latest
// parent that started at or before the child; spans whose parent hop never
// arrived become extra roots, so partial traces (drops, ring evictions)
// still render. Traces are returned ordered by first span start, then ID.
func Assemble(spans []SpanData) []*Trace {
	byID := make(map[ID]*Trace)
	var order []*Trace
	for _, d := range spans {
		if d.Trace == 0 {
			continue
		}
		t := byID[d.Trace]
		if t == nil {
			t = &Trace{ID: d.Trace}
			byID[d.Trace] = t
			order = append(order, t)
		}
		t.Spans = append(t.Spans, d)
	}
	for _, t := range order {
		t.build()
	}
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := order[i].start(), order[j].start()
		if !si.Equal(sj) {
			return si.Before(sj)
		}
		return order[i].ID < order[j].ID
	})
	return order
}

func (t *Trace) start() time.Time {
	var min time.Time
	for i, d := range t.Spans {
		if i == 0 || d.Start.Before(min) {
			min = d.Start
		}
	}
	return min
}

func (t *Trace) build() {
	nodes := make([]*Node, len(t.Spans))
	for i := range t.Spans {
		nodes[i] = &Node{SpanData: t.Spans[i]}
	}
	for _, n := range nodes {
		p := bestParent(nodes, n)
		if p == nil {
			t.Roots = append(t.Roots, n)
			continue
		}
		p.Children = append(p.Children, n)
	}
	var sortKids func(n *Node)
	sortKids = func(n *Node) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			return childLess(n.Children[i], n.Children[j])
		})
		for _, c := range n.Children {
			sortKids(c)
		}
	}
	sort.SliceStable(t.Roots, func(i, j int) bool { return childLess(t.Roots[i], t.Roots[j]) })
	for _, r := range t.Roots {
		sortKids(r)
	}
}

// childLess orders siblings canonically — by hop, then process, then
// stream annotation — deliberately ignoring timestamps so two runs of the
// same seeded workload produce byte-identical trees even though wall-clock
// timings differ.
func childLess(a, b *Node) bool {
	if a.Hop != b.Hop {
		return a.Hop < b.Hop
	}
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	return a.Attr("stream") < b.Attr("stream")
}

func bestParent(nodes []*Node, child *Node) *Node {
	if child.Parent == "" {
		return nil
	}
	var best *Node
	better := func(cand *Node) bool {
		if best == nil {
			return true
		}
		candProc := cand.Proc == child.Proc
		bestProc := best.Proc == child.Proc
		if candProc != bestProc {
			return candProc
		}
		candBefore := !cand.Start.After(child.Start)
		bestBefore := !best.Start.After(child.Start)
		if candBefore != bestBefore {
			return candBefore
		}
		return cand.Start.After(best.Start) // latest-started eligible parent
	}
	for _, n := range nodes {
		if n == child || n.Hop != child.Parent {
			continue
		}
		if better(n) {
			best = n
		}
	}
	return best
}

// Hops returns the set of hop names present in the trace, sorted.
func (t *Trace) Hops() []string {
	seen := make(map[string]bool)
	for _, d := range t.Spans {
		seen[d.Hop] = true
	}
	out := make([]string, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Covers reports whether the trace contains every listed hop.
func (t *Trace) Covers(hops ...string) bool {
	seen := make(map[string]bool)
	for _, d := range t.Spans {
		seen[d.Hop] = true
	}
	for _, h := range hops {
		if !seen[h] {
			return false
		}
	}
	return true
}

// Tree renders the canonical form of the trace: one line per span with
// hop, process, and sorted annotations — no timestamps, no IDs — indented
// by depth. Identical seeded runs yield identical Tree output; that
// equality is what cmd/brtrace -verify asserts.
func (t *Trace) Tree() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Hop)
		b.WriteString(" [")
		b.WriteString(n.Proc)
		b.WriteString("]")
		if len(n.Attrs) > 0 {
			attrs := append([]Attr(nil), n.Attrs...)
			sort.Slice(attrs, func(i, j int) bool {
				if attrs[i].Key != attrs[j].Key {
					return attrs[i].Key < attrs[j].Key
				}
				return attrs[i].Value < attrs[j].Value
			})
			for _, a := range attrs {
				fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
			}
		}
		b.WriteString("\n")
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
	return b.String()
}

// Forest renders the canonical trees of all traces, in assembly order —
// the unit of comparison for determinism checks.
func Forest(traces []*Trace) string {
	var b strings.Builder
	for i, t := range traces {
		fmt.Fprintf(&b, "--- trace %d ---\n%s", i, t.Tree())
	}
	return b.String()
}

// Breakdown aggregates per-hop latency histograms from spans, wiring each
// observation into the metrics histogram together with its trace ID as an
// exemplar, so a suspicious percentile can be chased back to a concrete
// trace.
type Breakdown struct {
	mu   sync.Mutex
	hops map[string]*metrics.Histogram[time.Duration]
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{hops: make(map[string]*metrics.Histogram[time.Duration])}
}

// Record folds spans into the per-hop histograms.
func (b *Breakdown) Record(spans []SpanData) {
	for _, d := range spans {
		b.Hist(d.Hop).ObserveExemplar(d.Duration(), uint64(d.Trace))
	}
}

// Hist returns (creating if needed) the histogram for one hop.
func (b *Breakdown) Hist(hop string) *metrics.Histogram[time.Duration] {
	b.mu.Lock()
	defer b.mu.Unlock()
	h := b.hops[hop]
	if h == nil {
		h = metrics.NewHistogram[time.Duration]()
		b.hops[hop] = h
	}
	return h
}

// HopStat is one hop's latency summary, as exported by cmd/brbench.
type HopStat struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Stats returns the per-hop summaries keyed by hop name.
func (b *Breakdown) Stats() map[string]HopStat {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]HopStat, len(b.hops))
	for hop, h := range b.hops {
		s := h.Snapshot()
		out[hop] = HopStat{Count: s.Count, Mean: s.Mean, P50: s.P50, P95: s.P95, P99: s.P99, Max: s.Max}
	}
	return out
}

// hopOrder fixes the table row order to pipeline position; unknown hops
// sort after, lexically.
var hopOrder = map[string]int{
	HopPublish: 0, HopFanout: 1, HopDeliver: 2, HopFetch: 3,
	HopPrivacy: 4, HopResolve: 5, HopFlush: 6, HopRelay: 7, HopApply: 8,
}

// Table renders the breakdown as an aligned text table in pipeline order.
func (b *Breakdown) Table() string {
	b.mu.Lock()
	hops := make([]string, 0, len(b.hops))
	for hop := range b.hops {
		hops = append(hops, hop)
	}
	b.mu.Unlock()
	sort.Slice(hops, func(i, j int) bool {
		oi, iok := hopOrder[hops[i]]
		oj, jok := hopOrder[hops[j]]
		if iok && jok {
			return oi < oj
		}
		if iok != jok {
			return iok
		}
		return hops[i] < hops[j]
	})
	var out strings.Builder
	fmt.Fprintf(&out, "%-14s %8s %12s %12s %12s %12s\n", "hop", "count", "mean", "p50", "p95", "max")
	for _, hop := range hops {
		s := b.Hist(hop).Snapshot()
		fmt.Fprintf(&out, "%-14s %8d %12v %12v %12v %12v\n",
			hop, s.Count, metrics.Round3(s.Mean), metrics.Round3(s.P50), metrics.Round3(s.P95), metrics.Round3(s.Max))
	}
	return out.String()
}
