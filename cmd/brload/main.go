// Command brload inspects the synthetic workload generators: it prints the
// sampled distributions (Table 1 area activity, Table 2 stream lifetimes,
// the diurnal curves) so their calibration can be eyeballed or piped into
// plotting tools.
//
// With -scenario it instead drives the megadevice harness: a million-device
// virtual fleet attached to a live in-process cluster, measuring delivery
// latency, churn throughput and per-device memory, and writing the report
// as JSON.
//
// Usage:
//
//	brload -what areas -n 1000000
//	brload -what lifetimes -n 100000
//	brload -what diurnal
//	brload -what graph -n 10000
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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"time"

	"bladerunner/internal/megadevice"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/workload"
)

func main() {
	what := flag.String("what", "areas", "areas | lifetimes | diurnal | graph")
	n := flag.Int("n", 1_000_000, "sample count")
	seed := flag.Int64("seed", 1, "RNG seed")
	scenario := flag.String("scenario", "", "run a megadevice scenario instead: diurnal | storm | celebrity | replay")
	devices := flag.Int("devices", 1_000_000, "scenario: virtual device count")
	areas := flag.Int("areas", 1000, "scenario: topic/area count")
	zipfS := flag.Float64("zipf", 1.1, "scenario: area-popularity Zipf exponent")
	simDur := flag.Duration("sim", 0, "scenario: simulated span (0 = scenario default)")
	short := flag.Bool("short", false, "scenario: CI smoke sizing (fewer publishes/probes)")
	benchJSON := flag.String("bench-json", "", "scenario: write the report JSON to this file")
	maxBPD := flag.Float64("max-bytes-per-device", 0, "scenario: fail if bytes/device exceeds this (0 = no gate)")
	netMode := flag.String("net", "", "live mode transport: tcp (drive a running brnode cluster)")
	connect := flag.String("connect", "", "live mode: POP BURST address(es), comma-separated")
	wasCtrl := flag.String("was-ctrl", "", "live mode: WAS process ctrl address (publish path)")
	region := flag.String("region", "us-east", "live mode: cluster region")
	flag.Parse()

	if *netMode != "" {
		if *netMode != "tcp" {
			log.Fatalf("brload: unknown -net %q (want tcp)", *netMode)
		}
		runLive(strings.Split(*connect, ","), *wasCtrl, *region,
			*devices, *areas, *seed, *simDur, *benchJSON)
		return
	}

	if *scenario != "" {
		runScenario(*scenario, *devices, *areas, *zipfS, *seed, *simDur, *short, *benchJSON, *maxBPD)
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	switch *what {
	case "areas":
		showAreas(rng, *n)
	case "lifetimes":
		showLifetimes(rng, *n)
	case "diurnal":
		showDiurnal()
	case "graph":
		showGraph(*seed, *n)
	default:
		log.Fatalf("brload: unknown -what %q", *what)
	}
}

// runLive drives a live brnode cluster over TCP. The scenario-sized
// -devices/-areas defaults (a million virtual devices) make no sense
// against real sockets, so untouched defaults fall back to live-mode
// sizing (200 devices, 20 areas).
func runLive(pops []string, wasCtrl, region string, devices, areas int,
	seed int64, simDur time.Duration, benchJSON string) {
	if devices == 1_000_000 {
		devices = 0
	}
	if areas == 1000 {
		areas = 0
	}
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
			rep.LogAppends, rep.LogCatchUpDeltas, rep.LogExpired, rep.Resumes)
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

func showAreas(rng *rand.Rand, n int) {
	var zero, b10, b100, mid, b1M, b100M int
	var total int64
	for i := 0; i < n; i++ {
		u := workload.AreaUpdates(rng, workload.Table1Buckets)
		total += u
		switch {
		case u == 0:
			zero++
		case u < 10:
			b10++
		case u < 100:
			b100++
		case u <= 1_000_000:
			mid++
		case u <= 100_000_000:
			b1M++
		default:
			b100M++
		}
	}
	fmt.Printf("areas sampled: %d, total daily updates: %d\n", n, total)
	p := func(c int) float64 { return 100 * float64(c) / float64(n) }
	fmt.Printf("  0 updates:        %7.4f%%  (paper: 83%%)\n", p(zero))
	fmt.Printf("  1-9:              %7.4f%%  (paper: 16%%)\n", p(b10))
	fmt.Printf("  10-99:            %7.4f%%  (paper: 0.95%%)\n", p(b100))
	fmt.Printf("  100-1M:           %7.4f%%  (paper: elided)\n", p(mid))
	fmt.Printf("  1M-100M:          %7.4f%%  (paper: 0.049%%)\n", p(b1M))
	fmt.Printf("  >100M:            %7.4f%%  (paper: 0.0001%%)\n", p(b100M))
}

func showLifetimes(rng *rand.Rand, n int) {
	var b15, b1h, b24, more int
	for i := 0; i < n; i++ {
		lt := workload.StreamLifetime(rng, workload.Table2Buckets)
		switch {
		case lt < 15*time.Minute:
			b15++
		case lt < time.Hour:
			b1h++
		case lt < 24*time.Hour:
			b24++
		default:
			more++
		}
	}
	p := func(c int) float64 { return 100 * float64(c) / float64(n) }
	fmt.Printf("stream lifetimes (n=%d):\n", n)
	fmt.Printf("  <15min:  %6.2f%%  (paper: 45%%)\n", p(b15))
	fmt.Printf("  15m-1h:  %6.2f%%  (paper: 26%%)\n", p(b1h))
	fmt.Printf("  1h-24h:  %6.2f%%  (paper: 25%%)\n", p(b24))
	fmt.Printf("  24h+:    %6.2f%%  (paper: 4%%)\n", p(more))
}

func showDiurnal() {
	day := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	fmt.Println("hour, streams/user, subs/min, pubs/min, drops/min(M), reconnects/min(M)")
	for h := 0; h < 24; h++ {
		t := day.Add(time.Duration(h) * time.Hour)
		fmt.Printf("%02d:00, %5.2f, %5.3f, %5.3f, %6.1f, %5.2f\n",
			h,
			workload.ActiveStreamsPerUser.At(t),
			workload.SubscriptionsPerUserMinute.At(t),
			workload.PublicationsPerUserMinute.At(t),
			workload.EdgeConnectionDropsPerMinute.At(t)/1e6,
			workload.ProxyReconnectsPerMinute.At(t)/1e6)
	}
}

func showGraph(seed int64, n int) {
	cfg := socialgraph.DefaultConfig()
	cfg.Users = n
	cfg.Seed = seed
	g, err := socialgraph.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	st := g.Degrees()
	fmt.Printf("graph: %d users, degree min/mean/max = %d/%.1f/%d\n",
		g.NumUsers(), st.Min, st.Mean, st.Max)
	// Degree histogram (log buckets).
	buckets := []int{0, 1, 10, 50, 100, 500, 1000}
	counts := make([]int, len(buckets))
	for id := socialgraph.UserID(1); id <= socialgraph.UserID(n); id++ {
		d := len(g.Friends(id))
		for i := len(buckets) - 1; i >= 0; i-- {
			if d >= buckets[i] {
				counts[i]++
				break
			}
		}
	}
	for i, b := range buckets {
		hi := "∞"
		if i+1 < len(buckets) {
			hi = fmt.Sprint(buckets[i+1] - 1)
		}
		fmt.Printf("  degree %4d-%4s: %d users\n", b, hi, counts[i])
	}
}
