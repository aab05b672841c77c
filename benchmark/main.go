// Command benchmark is the repository's one repeatable benchmark: four
// fixed-work workloads, eight end-to-end metrics, and per-layer metrics
// from timing wrappers slotted into the tiers' existing seams. It
// assembles the cluster from the public tier constructors, drives it from
// this one process, checks every delivery against a reference, and prints
// every metric by name with its unit. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// segmentSeconds is the nominal length of one pass (set-up, warm-up, one
// measured segment) on the seed commit; -seconds buys
// seconds/segmentSeconds passes of fixed work.
const segmentSeconds = 2

type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 24, "nominal measured seconds: buys seconds/2 fixed-work segments")
		trace     = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics and write out/trace-<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "run two alternating sets of ten runs per workload and compare their medians with the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	keepMemory()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	if *selfcheck {
		if err := runSelfcheck(names, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck:", err)
			os.Exit(1)
		}
		return
	}

	printMeta(*seed, *seconds)
	ok := true
	for _, name := range names {
		var res result
		var err error
		if *trace == 1 {
			res, err = runTraced(name, *seed)
		} else {
			res, err = runEndToEnd(name, *seed, *seconds)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		}
		res.Correct = res.Correct && err == nil
		ok = ok && res.Correct
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// keepMemory re-executes the benchmark with GODEBUG=madvdontneed=0, so that
// the Go runtime marks the memory a torn-down cluster leaves behind as
// reusable (MADV_FREE) instead of handing it back to the kernel. Every pass
// builds a fresh cluster; on a VM whose balloon reports free pages to the
// host, memory handed back is unmapped within seconds, touching it again
// costs ten times a normal page fault, and the passes of a run stop being
// alike. A GODEBUG that already says anything about madvdontneed is left
// alone.
func keepMemory() {
	godebug := os.Getenv("GODEBUG")
	if strings.Contains(godebug, "madvdontneed=") {
		return
	}
	exe, err := os.Executable()
	if err != nil {
		return
	}
	if godebug != "" {
		godebug += ","
	}
	os.Setenv("GODEBUG", godebug+"madvdontneed=0")
	err = syscall.Exec(exe, os.Args, os.Environ())
	fmt.Fprintln(os.Stderr, "benchmark: re-exec with GODEBUG=madvdontneed=0 failed, going on without:", err)
}

func printMeta(seed int64, seconds int) {
	rev := "unknown"
	if bi, found := debug.ReadBuildInfo(); found {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					rev += "-dirty"
				}
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	fmt.Printf("meta: seed=%d seconds=%d gomaxprocs=%d numcpu=%d gogc=%s godebug=%s go=%s %s/%s rev=%s\n",
		seed, seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), gogc, os.Getenv("GODEBUG"),
		runtime.Version(), runtime.GOOS, runtime.GOARCH, rev)
}

// tally accumulates attempted and failed operations across a run's passes.
type tally struct {
	attempted, failed int64
}

func (t *tally) add(workload, pass string, r *passResult) {
	t.attempted += r.attempted
	t.failed += r.fail.total()
	if r.fail.total() > 0 {
		fmt.Printf("%s: %s pass FAILED its reference check: %s\n", workload, pass, r.fail)
	}
}

func (t *tally) result(defs []metricDef, values map[string]float64) result {
	res := result{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]measurement, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = measurement{Value: values[d.name], Unit: d.unit}
	}
	return res
}

func printMetrics(workload string, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("  (%s is better, bound %.2f)", d.better, d.bound)
		}
		fmt.Printf("%-15s %-34s %14.4f %-6s%s\n", workload, d.name, values[d.name], d.unit, bound)
	}
}

// runEndToEnd is the untraced run: seconds/segmentSeconds passes, each a
// fresh cluster that is set up, warmed up, driven through one measured
// segment of fixed work, checked and torn down. Every pass replays the
// same script, so each metric has that many like-for-like samples, set-up
// time included.
func runEndToEnd(name string, seed int64, seconds int) (result, error) {
	var t tally
	sc, err := buildScript(name, seed, sizing{segments: 1, div: 1})
	if err != nil {
		return t.result(nil, nil), err
	}
	fmt.Printf("%s: %s\n", name, workloadWhy[name])

	var passes []*passResult
	for i := 0; i < max(seconds/segmentSeconds, 3); i++ {
		r, err := runPass(sc, false)
		if r != nil {
			t.add(name, "untraced", r)
			passes = append(passes, r)
		}
		if err != nil {
			return t.result(nil, nil), err
		}
	}
	values := endToEnd(passes)
	fmt.Printf("%s: %s; K=%d in flight\n", name, describe(passes), sc.inflight)
	printMetrics(name, endToEndMetrics, values)
	printMetrics(name, timedMetrics, values)
	fmt.Printf("%s: operations attempted %d, failed %d\n", name, t.attempted, t.failed)
	return t.result(endToEndMetrics, values), nil
}

// tracedSizing is the fixed work of each pass of a traced run: one
// segment's worth of work, cut into four quarter-size segments.
// Attribution needs counts and means, not long windows, and every span is
// kept in memory.
var tracedSizing = sizing{segments: 4, div: 4}

// agingSizing is the fixed work of a traced run's one long-lived cluster:
// eight full segments back to back, so that a slowdown that comes with
// state growth, which the young clusters of an untraced run never reach,
// shows as e2e.segment_slope.
var agingSizing = sizing{segments: 8, div: 1}

// runTraced is the traced run: an untraced pass (the baseline the tracing
// overhead is measured against), the traced pass, an untraced pass of eight
// full segments in one cluster, for hot_fanout a pass on one processor and,
// for a wire workload, a traced pass of the same inputs in-process.
func runTraced(name string, seed int64) (result, error) {
	var t tally
	sc, err := buildScript(name, seed, tracedSizing)
	if err != nil {
		return t.result(nil, nil), err
	}
	fmt.Printf("%s: %s\n", name, workloadWhy[name])

	pass := func(label string, sc *script, traced bool) (*passResult, error) {
		r, err := runPass(sc, traced)
		if r != nil {
			t.add(name, label, r)
		}
		return r, err
	}
	untraced, err := pass("untraced", sc, false)
	if err != nil {
		return t.result(nil, nil), err
	}
	traced, err := pass("traced", sc, true)
	if err != nil {
		return t.result(nil, nil), err
	}
	agingScript, err := buildScript(name, seed, agingSizing)
	if err != nil {
		return t.result(nil, nil), err
	}
	aging, err := pass("one-cluster", agingScript, false)
	if err != nil {
		return t.result(nil, nil), err
	}
	var single, inproc *passResult
	if name == "hot_fanout" {
		procs := runtime.GOMAXPROCS(1)
		single, err = pass("single-processor", sc, false)
		runtime.GOMAXPROCS(procs)
		if err != nil {
			return t.result(nil, nil), err
		}
	}
	if sc.wire {
		local := *sc
		local.wire = false
		if inproc, err = pass("traced in-process", &local, true); err != nil {
			return t.result(nil, nil), err
		}
	}

	path := filepath.Join("benchmark", "out", "trace-"+name+".json")
	if err := traced.tr.write(path, name, traced.trace.written); err != nil {
		return t.result(nil, nil), err
	}
	values := perLayer(traced, untraced, aging, single, inproc)
	fmt.Printf("%s: traced pass: %s; %d spans written to %s\n", name, describe([]*passResult{traced}), traced.trace.written, path)
	printMetrics(name, perLayerMetrics, values)
	fmt.Printf("%s: operations attempted %d, failed %d\n", name, t.attempted, t.failed)
	return t.result(perLayerMetrics, values), nil
}
