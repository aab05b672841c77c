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
//	brtrace -workload chaos          # messenger under a seeded fault plan (PR 2)
//	brtrace -seed 7                  # reseed sampler, graph, and fault plan
//	brtrace -rate 0.25               # sample a quarter of mutations
//	brtrace -o trace.json            # export Chrome trace_event JSON
//	                                 # (chrome://tracing or ui.perfetto.dev)
//	brtrace -verify                  # run the workload twice and assert the
//	                                 # canonical span forests are identical
//
// -verify holds for the quickstart and lvc workloads, whose delivery order
// is serialized; the chaos workload's recovery timing is wall-clock
// dependent, so its exact span multiset may differ between runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/experiments"
	"bladerunner/internal/faults"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/trace"
)

func main() {
	seed := flag.Int64("seed", 1, "RNG seed for the sampler, graph, and fault plan")
	workload := flag.String("workload", "quickstart", "workload: quickstart, lvc, chaos")
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
		return experiments.TracedLVCRun(seed, orDefault(viewers, 1), orDefault(events, 3), rate)
	case "lvc":
		return experiments.TracedLVCRun(seed, orDefault(viewers, 3), orDefault(events, 25), rate)
	case "chaos":
		return runChaos(seed, orDefault(events, 3), rate)
	default:
		return nil, fmt.Errorf("unknown workload %q (quickstart, lvc, chaos)", workload)
	}
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// runChaos drives the Messenger app through a FaultNetwork: a baseline
// message, a seeded cut/heal plan over the POPs plus a mass disconnect, and
// post-recovery messages — all with the tracing plane on, so the trace for
// a post-recovery delivery shows the same stream identity (the
// "trace-stream" header survives the rewrite/resubscribe) as the baseline.
func runChaos(seed int64, events int, rate float64) (*trace.Plane, error) {
	plane := trace.NewPlane(trace.Config{Rate: rate, Seed: seed})
	cfg := core.DefaultConfig()
	cfg.Graph.Users = 100
	cfg.Graph.BlockProb = 0
	cfg.Graph.Seed = seed
	cfg.Trace = plane
	c, err := core.NewCluster(cfg, nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	fn := faults.NewFaultNetwork(c.Net, nil, seed)
	sched := sim.RealClock{}

	const authorUID, viewerUID = socialgraph.UserID(90), socialgraph.UserID(10)
	author := c.NewDevice(authorUID)
	defer author.Close()
	viewer := c.NewDeviceVia(fn, device.Config{
		User:        viewerUID,
		Backoff:     faults.BackoffPolicy{Base: 10 * time.Millisecond, Max: 160 * time.Millisecond},
		BackoffSeed: seed + 1,
	})
	defer viewer.Close()
	if err := viewer.Connect(); err != nil {
		return nil, err
	}
	st, err := viewer.Subscribe(apps.AppMessenger, "messenger", nil)
	if err != nil {
		return nil, err
	}
	received := make(chan struct{}, 64)
	go func() {
		for delta, ok := st.Next(); ok; delta, ok = st.Next() {
			if delta.Type == burst.DeltaPayload {
				received <- struct{}{}
			}
		}
	}()

	out, err := author.Mutate(fmt.Sprintf(`createThread(members: "%d,%d")`, authorUID, viewerUID))
	if err != nil {
		return nil, err
	}
	var tid uint64
	if err := json.Unmarshal(out, &tid); err != nil {
		return nil, err
	}
	waitSubscribed := func() error {
		ok := experiments.WaitUntil(sched, 15*time.Second, func() bool {
			return len(c.Pylon.Subscribers(apps.MailboxTopic(viewerUID))) >= 1
		})
		if !ok {
			return fmt.Errorf("chaos: mailbox subscription never registered with Pylon")
		}
		return nil
	}
	send := func(label string) error {
		if _, err := author.Mutate(fmt.Sprintf(
			`sendMessage(threadID: %d, text: "%s")`, tid, label)); err != nil {
			return err
		}
		select {
		case <-received:
			return nil
		case <-sim.Timeout(sched, 15*time.Second):
			return fmt.Errorf("chaos: %s message never delivered", label)
		}
	}
	if err := waitSubscribed(); err != nil {
		return nil, err
	}
	if err := send("baseline"); err != nil {
		return nil, err
	}

	// Seeded fault window over the POPs, then a mass disconnect/heal.
	pops := c.POPTargets()
	plan := faults.RandomPlan(seed, pops, 500*time.Millisecond, 2)
	done := plan.Start(fn)
	sim.Sleep(sched, plan.Horizon()+50*time.Millisecond)
	done()
	for _, pop := range pops {
		fn.Cut(pop)
	}
	sim.Sleep(sched, 50*time.Millisecond)
	for _, pop := range pops {
		fn.Heal(pop)
	}
	ok := experiments.WaitUntil(sched, 15*time.Second, func() bool {
		return viewer.Connected() && viewer.Streams() == 1
	})
	if !ok {
		return nil, fmt.Errorf("chaos: device never reconnected after the mass cut")
	}
	if err := waitSubscribed(); err != nil {
		return nil, err
	}

	for i := 0; i < events; i++ {
		if err := send(fmt.Sprintf("post-recovery %d", i)); err != nil {
			return nil, err
		}
	}
	c.Quiesce()
	return plane, nil
}
