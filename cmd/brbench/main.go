// Command brbench regenerates the paper's tables and figures from this
// repository's Bladerunner implementation and prints paper-reported values
// next to measured ones.
//
// Usage:
//
//	brbench                  # run every experiment
//	brbench -exp table3      # run one: fig6, table3, fig9, switchover, storm,
//	                         # geofailover, durlog or ablations
//	brbench -seed 7          # change the RNG seed
//	brbench -series          # also dump the full figure series as CSV
//
// table3 and fig9 read the spans of two traced LVC runs on the live stack,
// fig6 and switchover the switchover's poll and stream runs; each pair is
// made once per invocation. brbench prints every result, then exits 1 if
// any experiment failed: a run that could not measure, or a drill whose
// headline property did not hold. An unknown id exits 2.
//
// What the system costs to run (allocations, heap, set-up, per-layer time)
// is `go run ./benchmark`'s job, not this command's.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"bladerunner/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 1, "RNG seed")
	series := flag.Bool("series", false, "dump full figure series as CSV after each result")
	measured := sync.OnceValue(func() experiments.LiveLatency { return experiments.MeasureLatency(*seed) })
	switchover := sync.OnceValue(func() experiments.SwitchoverRuns { return experiments.MeasureSwitchover(*seed) })
	// runners in paper order, brbench's one list of experiment ids; "all"
	// runs experiments.All and then the last, the ablation.
	runners := []struct {
		id  string
		run func() experiments.Result
	}{
		{"fig6", func() experiments.Result { return experiments.Figure6(switchover()) }},
		{"table3", func() experiments.Result { return experiments.Table3(measured()) }},
		{"fig9", func() experiments.Result { return experiments.Figure9(measured()) }},
		{"switchover", func() experiments.Result { return experiments.Switchover(switchover()) }},
		{"storm", func() experiments.Result { return experiments.ReconnectStorm(*seed) }},
		{"geofailover", func() experiments.Result { return experiments.GeoFailover(*seed) }},
		{"durlog", func() experiments.Result { return experiments.DurlogResume(*seed) }},
		{"ablations", func() experiments.Result { return experiments.AblationSubscriptionDedup(50, 4) }},
	}
	ids := []string{"all"}
	for _, r := range runners {
		ids = append(ids, r.id)
	}
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(ids, ", "))
	flag.Parse()

	var results []experiments.Result
	for _, r := range runners {
		if r.id == *exp {
			results = []experiments.Result{r.run()}
		}
	}
	if *exp == "all" {
		results = append(experiments.All(*seed), runners[len(runners)-1].run())
	}
	if results == nil {
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
