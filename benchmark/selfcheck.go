package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
)

// runSelfcheck is the benchmark's check on itself: two alternating sets of
// runs of the same code, each run a fresh process with a fresh seed, exactly
// as a comparison of two commits would be made. The benchmark is usable
// only if the two sets agree: for every (end-to-end metric, workload) pair
// the medians must differ by no more than the metric's bound. A pair whose
// run-to-run spread (interquartile range over median) is wider than the
// bound is marked unresolved: its medians agreeing says nothing. The table
// it prints is the one committed in README.md.
func runSelfcheck(workloads []string, seed int64, seconds int) error {
	const runs = 10 // per set
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	printMeta(seed, seconds)
	fmt.Printf("selfcheck: 2 sets x %d runs per workload, alternating A,B,A,B...; every run its own process and seed\n\n", runs)
	fmt.Println("| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | spread A | spread B | median shift | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")

	failed := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < 2*runs; i++ {
			seed++
			res, err := childRun(exe, w, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		for _, d := range endToEndMetrics {
			a1, a2, a3 := quartiles(sets[0][d.name])
			b1, b2, b3 := quartiles(sets[1][d.name])
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			// Positive shift = B is worse than A.
			shift := (b2 - a2) / a2
			if d.better == "higher" {
				shift = -shift
			}
			verdict := "ok"
			switch {
			case shift > d.bound || -shift > d.bound:
				verdict = "FAIL: medians differ by more than the bound"
				failed++
			case max(spreadA, spreadB) > d.bound:
				verdict = "unresolved: spread wider than the bound"
			}
			fmt.Printf("| %s | %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.2f%% | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				w, d.name, d.unit, a2, a1, a3, b2, b1, b3,
				100*spreadA, 100*spreadB, 100*shift, 100*d.bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d (metric, workload) pairs outside their bounds", failed)
	}
	return nil
}

// childRun runs one workload once in a child process and parses the result
// from the last line of its standard output.
func childRun(exe, workload string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%w\n%s", err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("parse result: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("reference check failed: %d of %d operations", res.Failed, res.Attempted)
	}
	return res, nil
}
