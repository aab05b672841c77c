// Command brbench regenerates the paper's tables and figures from this
// repository's Bladerunner implementation and prints paper-reported values
// next to measured ones.
//
// Usage:
//
//	brbench                  # run every experiment
//	brbench -exp fig6        # run one (table1, table2, table3, fig6..fig10, switchover)
//	brbench -seed 7          # change the RNG seed
//	brbench -series          # also dump the full figure series as CSV
//	brbench -bench-json F    # run the hot-path benchmarks, write ns/op and
//	                         # allocs/op to F (e.g. BENCH_3.json), skip experiments
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"bladerunner/internal/bench"
	"bladerunner/internal/experiments"
	"bladerunner/internal/sim"
	"bladerunner/internal/trace"
)

// benchResult is one benchmark's record in the -bench-json report.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
	// Hops is the per-hop latency breakdown for benchmarks that run with
	// the tracing plane on (EndToEndCommentPushHops), keyed by hop name.
	Hops map[string]trace.HopStat `json:"hops,omitempty"`
}

// benchBaseline holds the hot-path numbers recorded at commit 5cf3a5f —
// immediately before the subscriber-cache / payload-coalescing /
// frame-pooling fast path landed — on the same reference machine the
// "after" numbers in BENCH_3.json were measured on. They are kept here so
// every regenerated report carries its before/after comparison. The frame
// row measured one JSON encode + decode; its "after" is now the two rows
// BURSTFrameEncode + BURSTFrameDecode of the binary codec.
var benchBaseline = []benchResult{
	{Name: "PylonPublish", NsPerOp: 3511, AllocsPerOp: 30, BytesPerOp: 2579},
	{Name: "HotTopicFanout", NsPerOp: 1599513, AllocsPerOp: 97, BytesPerOp: 810832},
	{Name: "BURSTFrameRoundTrip", NsPerOp: 156.8, AllocsPerOp: 3, BytesPerOp: 448},
	{Name: "EndToEndCommentPush", NsPerOp: 212591, AllocsPerOp: 80, BytesPerOp: 6375},
}

// benchMeta is the run metadata stamped into every -bench-json report, so
// a recorded file is traceable to the tree, seed and run that produced it.
type benchMeta struct {
	Seed        int64   `json:"seed"`
	Scenario    string  `json:"scenario"`
	WallSeconds float64 `json:"wall_seconds"`
	GitDescribe string  `json:"git_describe"`
}

// gitDescribe identifies the working tree ("unknown" outside a git
// checkout — e.g. a release tarball).
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// benchReport is the schema of the -bench-json file.
type benchReport struct {
	Meta   benchMeta     `json:"meta"`
	Before []benchResult `json:"before"` // pre-fast-path baseline (commit 5cf3a5f)
	After  []benchResult `json:"after"`  // this build
	// Overload is the OverloadStorm experiment table (bounded p99 under a
	// hot-topic storm: unbounded vs shed vs shed+admission), recorded so
	// the report carries the overload-plane evidence alongside the
	// hot-path numbers. The hot-path benches above run with admission
	// ENABLED at a non-shedding rate — the 0 allocs/op gate covers the
	// plane's per-publish cost.
	Overload []experiments.Row `json:"overload,omitempty"`
	// GeoFailover is the multi-region disaster-path experiment: per-stream
	// failover time and cross-region replication lag when a whole region is
	// cut under live streams. The CDFs back the table rows.
	GeoFailover       []experiments.Row                    `json:"geofailover,omitempty"`
	GeoFailoverSeries map[string][]experiments.SeriesPoint `json:"geofailover_series,omitempty"`
	// Durlog is the durable-log resume experiment: the overload storm
	// rerun with the per-topic edge log on, showing WAS point queries at
	// ~0 while the view still converges gap-free.
	Durlog []experiments.Row `json:"durlog,omitempty"`
}

// runBenchJSON runs the shared hot-path benchmark bodies (internal/bench —
// the same code `go test -bench` runs) plus the OverloadStorm experiment,
// and writes the report to path.
func runBenchJSON(path string, seed int64) error {
	wall := sim.RealClock{}
	start := wall.Now()
	plain := func(fn func(*testing.B)) func(*testing.B) map[string]trace.HopStat {
		return func(b *testing.B) map[string]trace.HopStat { fn(b); return nil }
	}
	cases := []struct {
		name string
		fn   func(*testing.B) map[string]trace.HopStat
	}{
		{"PylonPublish", plain(bench.PylonPublish)},
		{"HotTopicFanout", plain(bench.HotTopicFanout)},
		{"BURSTFrameEncode", plain(bench.BURSTFrameEncode)},
		{"BURSTFrameDecode", plain(bench.BURSTFrameDecode)},
		{"EndToEndCommentPush", plain(bench.EndToEndCommentPush)},
		{"EndToEndCommentPushHops", bench.EndToEndCommentPushHops},
	}
	results := make([]benchResult, 0, len(cases))
	for _, c := range cases {
		fmt.Fprintf(os.Stderr, "bench %s...\n", c.name)
		var hops map[string]trace.HopStat
		r := testing.Benchmark(func(b *testing.B) { hops = c.fn(b) })
		if r.N == 0 {
			return fmt.Errorf("benchmark %s failed", c.name)
		}
		results = append(results, benchResult{
			Name:        c.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
			Hops:        hops,
		})
		fmt.Printf("%-22s %12.1f ns/op %8d B/op %6d allocs/op (n=%d)\n",
			c.name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp(), r.N)
	}
	fmt.Fprintln(os.Stderr, "experiment overload...")
	storm := experiments.OverloadStorm(seed)
	fmt.Println(storm)
	fmt.Fprintln(os.Stderr, "experiment geofailover...")
	geo := experiments.GeoFailover(seed)
	fmt.Println(geo)
	fmt.Fprintln(os.Stderr, "experiment durlog...")
	dlog := experiments.DurlogResume(seed)
	fmt.Println(dlog)
	out, err := json.MarshalIndent(benchReport{
		Meta: benchMeta{
			Seed:        seed,
			Scenario:    "hotpath-bench",
			WallSeconds: wall.Now().Sub(start).Seconds(),
			GitDescribe: gitDescribe(),
		},
		Before: benchBaseline, After: results, Overload: storm.Rows,
		GeoFailover: geo.Rows, GeoFailoverSeries: geo.Series,
		Durlog: dlog.Rows,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// wireReport is the schema of the -exp wire -bench-json file
// (BENCH_10.json): the over-the-wire tax of the multi-process deployment,
// in-process vs loopback-TCP for each measured hot path.
type wireReport struct {
	Meta benchMeta               `json:"meta"`
	Wire []experiments.WireBench `json:"wire"`
}

// runWireJSON runs the wire experiment and writes its machine-readable
// report (in-process vs loopback-TCP ns/op plus deltas) to path.
func runWireJSON(path string, seed int64) error {
	wall := sim.RealClock{}
	start := wall.Now()
	fmt.Fprintln(os.Stderr, "experiment wire...")
	res, rows := experiments.Wire(seed)
	fmt.Println(res)
	out, err := json.MarshalIndent(wireReport{
		Meta: benchMeta{
			Seed:        seed,
			Scenario:    "wire-tax",
			WallSeconds: wall.Now().Sub(start).Seconds(),
			GitDescribe: gitDescribe(),
		},
		Wire: rows,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func main() {
	exp := flag.String("exp", "all", "experiment id: all, table1, table2, table3, fig6, fig7, fig8, fig9, fig10, switchover, storm, hotfanout, tracehops, overload, geofailover, durlog, wire, ablations")
	seed := flag.Int64("seed", 1, "RNG seed")
	series := flag.Bool("series", false, "dump full figure series as CSV after each result")
	benchJSON := flag.String("bench-json", "", "write hot-path benchmark results (ns/op, allocs/op) to this JSON file and exit")
	flag.Parse()

	if *benchJSON != "" {
		run := runBenchJSON
		if *exp == "wire" {
			run = runWireJSON
		}
		if err := run(*benchJSON, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "brbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	runners := map[string]func() experiments.Result{
		"table1":      func() experiments.Result { return experiments.Table1(*seed, 2_000_000) },
		"table2":      func() experiments.Result { return experiments.Table2(*seed, 500_000) },
		"table3":      func() experiments.Result { return experiments.Table3(*seed, 100_000) },
		"fig6":        func() experiments.Result { return experiments.Figure6(*seed, 100_000) },
		"fig7":        func() experiments.Result { return experiments.Figure7(*seed, 200_000) },
		"fig8":        func() experiments.Result { return experiments.Figure8(*seed) },
		"fig9":        func() experiments.Result { return experiments.Figure9(*seed, 100_000) },
		"fig10":       func() experiments.Result { return experiments.Figure10(*seed) },
		"switchover":  func() experiments.Result { return experiments.Switchover(*seed) },
		"storm":       func() experiments.Result { return experiments.ReconnectStorm(*seed) },
		"hotfanout":   func() experiments.Result { return experiments.HotFanout(*seed) },
		"tracehops":   func() experiments.Result { return experiments.TraceHops(*seed) },
		"overload":    func() experiments.Result { return experiments.OverloadStorm(*seed) },
		"geofailover": func() experiments.Result { return experiments.GeoFailover(*seed) },
		"durlog":      func() experiments.Result { return experiments.DurlogResume(*seed) },
		"wire":        func() experiments.Result { r, _ := experiments.Wire(*seed); return r },
		"ablations":   nil, // expanded below
	}

	ablations := func() []experiments.Result {
		return []experiments.Result{
			experiments.AblationMetadataVsPayload(100000, 2, 0.09),
			experiments.AblationSubscriptionDedup(50, 4),
			experiments.AblationFirstResponder(10000),
			experiments.AblationRateLimitOrder(1000, 10, 0.2, nil),
		}
	}

	var results []experiments.Result
	if *exp == "all" {
		results = experiments.All(*seed)
		results = append(results, ablations()...)
	} else if *exp == "ablations" {
		results = ablations()
	} else {
		run, ok := runners[*exp]
		if !ok || run == nil {
			fmt.Fprintf(os.Stderr, "brbench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		results = []experiments.Result{run()}
	}

	for _, r := range results {
		fmt.Println(r)
		if *series && len(r.Series) > 0 {
			names := make([]string, 0, len(r.Series))
			for name := range r.Series {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Printf("# series %s/%s\n", r.ID, name)
				for _, p := range r.Series[name] {
					fmt.Printf("%g,%g\n", p.X, p.Y)
				}
			}
		}
	}
}
