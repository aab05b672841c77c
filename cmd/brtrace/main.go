// Command brtrace runs a seeded workload against the fully wired live
// stack with the end-to-end tracing plane on, then prints the per-hop
// latency breakdown and the assembled trace tree of one complete
// publish→…→device-apply trace. It exits nonzero unless at least one
// complete multi-hop trace was captured, which makes it CI's tracing smoke
// test.
//
// Usage:
//
//	brtrace                          # quickstart workload: 1 viewer, 3 comments
//	brtrace -workload lvc            # larger LVC run (-viewers, -events)
//	brtrace -seed 7                  # reseed the sampler and graph
//	brtrace -rate 0.25               # sample a quarter of mutations
//	brtrace -o trace.json            # export Chrome trace_event JSON
//	                                 # (chrome://tracing or ui.perfetto.dev)
//	brtrace -verify                  # run the workload twice and assert the
//	                                 # canonical span forests are identical
//
// -verify holds because both workloads serialize their delivery order.
// Traces through fault paths are checked by internal/faults'
// TestChaosTrace… tests.
package main

import (
	"flag"
	"fmt"
	"os"

	"bladerunner/internal/experiments"
	"bladerunner/internal/trace"
)

func main() {
	seed := flag.Int64("seed", 1, "RNG seed for the sampler and graph")
	workload := flag.String("workload", "quickstart", "workload: quickstart, lvc")
	events := flag.Int("events", 0, "mutations to publish (0 = workload default)")
	viewers := flag.Int("viewers", 0, "subscribed viewer devices (0 = workload default)")
	rate := flag.Float64("rate", 1, "sampling rate (0..1]")
	out := flag.String("o", "", "write Chrome trace_event JSON to this file")
	verify := flag.Bool("verify", false, "run twice and assert identical canonical span forests")
	flag.Parse()

	if err := run(*seed, *workload, *events, *viewers, *rate, *out, *verify); err != nil {
		fmt.Fprintf(os.Stderr, "brtrace: %v\n", err)
		os.Exit(1)
	}
}

func run(seed int64, workload string, events, viewers int, rate float64, out string, verify bool) error {
	plane, err := runWorkload(seed, workload, events, viewers, rate)
	if err != nil {
		return err
	}
	spans := plane.Gather()
	traces := trace.Assemble(spans)
	forest := trace.Forest(traces)

	var complete *trace.Trace
	completeN := 0
	for _, t := range traces {
		if t.Covers(trace.EdgePathHops...) {
			completeN++
			if complete == nil {
				complete = t
			}
		}
	}

	breakdown := trace.NewBreakdown()
	breakdown.Record(spans)
	fmt.Printf("workload %s, seed %d, sampling rate %g: %d spans, %d traces (%d complete), %d evicted\n\n",
		workload, seed, rate, len(spans), len(traces), completeN, plane.Evicted())
	fmt.Println(breakdown.Table())

	if complete != nil {
		fmt.Println("first complete trace:")
		fmt.Print(complete.Tree())
	}

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := trace.WriteChromeTrace(f, spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nChrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", out)
	}

	if verify {
		again, err := runWorkload(seed, workload, events, viewers, rate)
		if err != nil {
			return fmt.Errorf("verify re-run: %w", err)
		}
		forest2 := trace.Forest(trace.Assemble(again.Gather()))
		if forest2 != forest {
			return fmt.Errorf("verify: same seed produced different span forests\n--- run 1 ---\n%s--- run 2 ---\n%s",
				forest, forest2)
		}
		fmt.Printf("\nverify: deterministic — both runs produced the identical %d-trace forest\n", len(traces))
	}

	if complete == nil {
		return fmt.Errorf("no complete multi-hop trace captured (need %v)", trace.EdgePathHops)
	}
	return nil
}

func runWorkload(seed int64, workload string, events, viewers int, rate float64) (*trace.Plane, error) {
	switch workload {
	case "quickstart":
		return experiments.TracedLVCRun(seed, orDefault(viewers, 1), orDefault(events, 3), rate, nil)
	case "lvc":
		return experiments.TracedLVCRun(seed, orDefault(viewers, 3), orDefault(events, 25), rate, nil)
	default:
		return nil, fmt.Errorf("unknown workload %q (quickstart, lvc)", workload)
	}
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
