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
//
// What the system costs to run (allocations, heap, set-up, per-layer time)
// is `go run ./benchmark`'s job, not this command's.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"bladerunner/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: all, table1, table2, table3, fig6, fig7, fig8, fig9, fig10, switchover, storm, tracehops, geofailover, durlog, ablations")
	seed := flag.Int64("seed", 1, "RNG seed")
	series := flag.Bool("series", false, "dump full figure series as CSV after each result")
	flag.Parse()

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
		"tracehops":   func() experiments.Result { return experiments.TraceHops(*seed) },
		"geofailover": func() experiments.Result { return experiments.GeoFailover(*seed) },
		"durlog":      func() experiments.Result { return experiments.DurlogResume(*seed) },
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
