// Command brload drives the megadevice harness: a million-device virtual
// fleet attached to a live in-process cluster, measuring delivery latency,
// churn throughput and per-device memory, and writing the report as JSON.
// The diurnal scenario's drop rate is the paper's Fig 10 drop curve over
// the paper's 2 B devices (internal/megadevice).
//
// Usage:
//
//	brload -scenario diurnal -devices 1000000 -bench-json report.json
//	brload -scenario storm -short
//	brload -scenario replay -devices 100000 -bench-json report.json
//
// With -net tcp it instead drives a LIVE multi-process cluster (cmd/brnode)
// over real sockets, from this separate process: trunks dial the POP's
// BURST listener, publishes go through the WAS ctrl port:
//
//	brload -net tcp -connect 127.0.0.1:7105 -was-ctrl 127.0.0.1:7102 \
//	       -devices 500 -areas 20 -sim 15s
//
// In live mode -devices and -areas left unset take live-mode sizing (200
// devices, 20 areas) instead of the scenario defaults.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"strings"
	"time"

	"bladerunner/internal/megadevice"
)

func main() {
	seed := flag.Int64("seed", 1, "RNG seed")
	scenario := flag.String("scenario", "", "megadevice scenario: diurnal | storm | celebrity | replay")
	devices := flag.Int("devices", 1_000_000, "virtual device count")
	areas := flag.Int("areas", 1000, "topic/area count")
	zipfS := flag.Float64("zipf", 1.1, "scenario: area-popularity Zipf exponent")
	simDur := flag.Duration("sim", 0, "simulated span (0 = scenario default)")
	short := flag.Bool("short", false, "scenario: CI smoke sizing (fewer publishes/probes)")
	benchJSON := flag.String("bench-json", "", "write the report JSON to this file")
	maxBPD := flag.Float64("max-bytes-per-device", 0, "scenario: fail if bytes/device exceeds this (0 = no gate)")
	netMode := flag.String("net", "", "live mode transport: tcp (drive a running brnode cluster)")
	connect := flag.String("connect", "", "live mode: POP BURST address(es), comma-separated")
	wasCtrl := flag.String("was-ctrl", "", "live mode: WAS process ctrl address (publish path)")
	region := flag.String("region", "us-east", "live mode: cluster region")
	flag.Parse()

	switch {
	case *netMode != "":
		if *netMode != "tcp" {
			log.Fatalf("brload: unknown -net %q (want tcp)", *netMode)
		}
		devs, ars := liveSizing(flag.CommandLine, *devices, *areas)
		runLive(strings.Split(*connect, ","), *wasCtrl, *region,
			devs, ars, *seed, *simDur, *benchJSON)
	case *scenario != "":
		runScenario(*scenario, *devices, *areas, *zipfS, *seed, *simDur, *short, *benchJSON, *maxBPD)
	default:
		fmt.Fprintln(os.Stderr, "brload: need -scenario or -net tcp")
		flag.Usage()
		os.Exit(2)
	}
}

// liveSizing returns live mode's device and area counts. The scenario-sized
// defaults (a million virtual devices) make no sense against real sockets,
// so a flag fs's command line left unset becomes 0, which
// megadevice.RunLive sizes for live mode; a flag that was given is kept
// whatever its value.
func liveSizing(fs *flag.FlagSet, devices, areas int) (int, int) {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["devices"] {
		devices = 0
	}
	if !set["areas"] {
		areas = 0
	}
	return devices, areas
}

// runLive drives a live brnode cluster over TCP; devices or areas 0 take
// live-mode sizing.
func runLive(pops []string, wasCtrl, region string, devices, areas int,
	seed int64, simDur time.Duration, benchJSON string) {
	var clean []string
	for _, p := range pops {
		if p = strings.TrimSpace(p); p != "" {
			clean = append(clean, p)
		}
	}
	rep, err := megadevice.RunLive(megadevice.LiveOptions{
		Pops:     clean,
		WASAddr:  wasCtrl,
		Region:   region,
		Devices:  devices,
		Areas:    areas,
		Seed:     seed,
		Duration: simDur,
		Logf:     log.Printf,
	})
	if err != nil {
		log.Fatalf("brload: %v", err)
	}
	rep.GitDescribe = gitDescribe()
	fmt.Printf("live: %d devices over %d POP(s), %.1fs wall\n",
		rep.Devices, len(clean), rep.WallSecs)
	fmt.Printf("  connects=%d drops=%d dial_failures=%d trunk_deaths=%d\n",
		rep.Connects, rep.Drops, rep.DialFailures, rep.TrunkDeaths)
	fmt.Printf("  publishes=%d deltas=%d applied=%d probes=%d misses=%d\n",
		rep.Publishes, rep.Deltas, rep.Applied, rep.Probes, rep.ProbeMisses)
	fmt.Printf("  over-the-wire delivery latency p50=%v p99=%v (n=%d)\n",
		rep.LatencyNS.P50, rep.LatencyNS.P99, rep.LatencyNS.Count)
	if benchJSON != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("brload: marshal report: %v", err)
		}
		if err := os.WriteFile(benchJSON, append(buf, '\n'), 0o644); err != nil {
			log.Fatalf("brload: %v", err)
		}
		fmt.Printf("report written to %s\n", benchJSON)
	}
}

func runScenario(name string, devices, areas int, zipfS float64, seed int64,
	simDur time.Duration, short bool, benchJSON string, maxBPD float64) {
	rep, err := megadevice.Run(megadevice.Options{
		Scenario:    name,
		Devices:     devices,
		Areas:       areas,
		ZipfS:       zipfS,
		Seed:        seed,
		SimDuration: simDur,
		Short:       short,
		Logf:        log.Printf,
	})
	if err != nil {
		log.Fatalf("brload: %v", err)
	}
	rep.GitDescribe = gitDescribe()
	fmt.Printf("scenario %s: %d devices, %.0fs simulated in %.1fs wall (%.0f events/sec)\n",
		rep.Scenario, rep.Devices, rep.SimSeconds, rep.WallSecs, rep.EventsPerSec)
	fmt.Printf("  connects=%d drops=%d dial_failures=%d trunk_deaths=%d\n",
		rep.Connects, rep.Drops, rep.DialFailures, rep.TrunkDeaths)
	fmt.Printf("  publishes=%d deltas=%d applied=%d probes=%d misses=%d\n",
		rep.Publishes, rep.Deltas, rep.Applied, rep.Probes, rep.ProbeMisses)
	fmt.Printf("  delivery latency p50=%v p99=%v (n=%d)\n",
		rep.LatencyNS.P50, rep.LatencyNS.P99, rep.LatencyNS.Count)
	fmt.Printf("  bytes/device=%.1f\n", rep.BytesPerDevice)
	if rep.ReattachMinutes > 0 {
		fmt.Printf("  storm reattach: %.0f simulated minutes\n", rep.ReattachMinutes)
	}
	if rep.FanoutPerSec > 0 {
		fmt.Printf("  celebrity fanout: %.0f applies/sec into %d subscribers\n",
			rep.FanoutPerSec, rep.HotTopicSubs)
	}
	if rep.Scenario == megadevice.ScenarioReplay {
		fmt.Printf("  replay: %d late joiners caught up %d deltas from the edge log (backlog=%d, log resumes=%d)\n",
			rep.ReplayLateJoiners, rep.ReplayCatchUpApplied, rep.ReplayBacklog, rep.LogResumes)
		fmt.Printf("  log: appends=%d catchup_deltas=%d expired=%d resumes=%d\n",
			rep.LogAppends, rep.LogCatchUpDeltas, rep.LogExpired, rep.LogResumes)
	}
	if benchJSON != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("brload: marshal report: %v", err)
		}
		if err := os.WriteFile(benchJSON, append(buf, '\n'), 0o644); err != nil {
			log.Fatalf("brload: %v", err)
		}
		fmt.Printf("report written to %s\n", benchJSON)
	}
	if maxBPD > 0 && rep.BytesPerDevice > maxBPD {
		log.Fatalf("brload: bytes/device %.1f exceeds gate %.1f", rep.BytesPerDevice, maxBPD)
	}
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
