// Command brbench regenerates the paper's tables and figures from this
// repository's Bladerunner implementation and prints paper-reported values
// next to measured ones.
//
// Usage:
//
//	brbench                  # run every experiment
//	brbench -exp table3      # run one (see -exp's help for the ids)
//	brbench -seed 7          # change the RNG seed
//	brbench -series          # also dump the full figure series as CSV
//
// table3 and fig9 read the spans of two traced LVC runs on the live stack,
// fig6 and switchover the switchover's poll and stream runs; each pair is
// made once per invocation. brbench prints every result, then exits 1 if
// any experiment failed: a run that could not measure, or a drill whose
// headline property did not hold.
//
// What the system costs to run (allocations, heap, set-up, per-layer time)
// is `go run ./benchmark`'s job, not this command's.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"

	"bladerunner/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: all, table1, table2, table3, fig6, fig8, fig9, fig10, switchover, storm, geofailover, durlog, ablations")
	seed := flag.Int64("seed", 1, "RNG seed")
	series := flag.Bool("series", false, "dump full figure series as CSV after each result")
	flag.Parse()

	measured := sync.OnceValue(func() experiments.LiveLatency { return experiments.MeasureLatency(*seed) })
	switchover := sync.OnceValue(func() experiments.SwitchoverRuns { return experiments.MeasureSwitchover(*seed) })
	runners := map[string]func() experiments.Result{
		"table1":      func() experiments.Result { return experiments.Table1(*seed, 2_000_000) },
		"table2":      func() experiments.Result { return experiments.Table2(*seed, 500_000) },
		"table3":      func() experiments.Result { return experiments.Table3(measured()) },
		"fig6":        func() experiments.Result { return experiments.Figure6(switchover()) },
		"fig8":        func() experiments.Result { return experiments.Figure8(*seed) },
		"fig9":        func() experiments.Result { return experiments.Figure9(measured()) },
		"fig10":       func() experiments.Result { return experiments.Figure10(*seed) },
		"switchover":  func() experiments.Result { return experiments.Switchover(switchover()) },
		"storm":       func() experiments.Result { return experiments.ReconnectStorm(*seed) },
		"geofailover": func() experiments.Result { return experiments.GeoFailover(*seed) },
		"durlog":      func() experiments.Result { return experiments.DurlogResume(*seed) },
		"ablations":   func() experiments.Result { return experiments.AblationSubscriptionDedup(50, 4) },
	}

	var results []experiments.Result
	if *exp == "all" {
		results = append(experiments.All(*seed), runners["ablations"]())
	} else if run, ok := runners[*exp]; ok {
		results = []experiments.Result{run()}
	} else {
		fmt.Fprintf(os.Stderr, "brbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	failed := false
	for _, r := range results {
		fmt.Println(r)
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "brbench: %s: %v\n", r.ID, r.Err)
			failed = true
		}
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
	if failed {
		os.Exit(1)
	}
}
