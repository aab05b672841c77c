package megadevice

import (
	"fmt"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/ctrl"
	"bladerunner/internal/edge"
	"bladerunner/internal/sim"
	"bladerunner/internal/workload"

	"math/rand"
)

// ScenarioLive drives a cluster of REAL brnode processes over TCP instead
// of building an in-process cluster: trunks dial live POP listeners, and
// publishes go through the WAS process's control port. It is the
// over-the-wire counterpart of the in-process scenarios — same fleet,
// same apps, real sockets and process boundaries on every hop.
const ScenarioLive = "live"

// LiveOptions parameterizes a RunLive run against an already-running
// multi-process cluster (cmd/brnode -role all).
type LiveOptions struct {
	// Pops are the BURST listen addresses of live POP processes.
	Pops []string
	// WASAddr is the WAS process's ctrl address (publish path).
	WASAddr string
	// Region must match the cluster's -region (default us-east).
	Region string
	// Devices and Areas size the virtual fleet. The WAS process must have
	// been booted with at least 2*Areas+1 graph users (brnode's default
	// 100 users supports up to 49 areas).
	Devices int
	Areas   int
	Seed    int64
	// Duration is the wall-clock driving span (default 10s).
	Duration time.Duration
	// Logf receives progress lines (nil discards).
	Logf func(format string, args ...any)
}

// Live mode's pacing: background publishes and delivery-latency probes per
// wall-clock second, and the wait for one probe's delivery.
const (
	livePubsPerSec   = 10
	liveProbesPerSec = 1
	liveProbeWait    = 2 * time.Second
)

func (o *LiveOptions) normalize() error {
	if len(o.Pops) == 0 {
		return fmt.Errorf("megadevice: live mode needs at least one POP address")
	}
	if o.WASAddr == "" {
		return fmt.Errorf("megadevice: live mode needs the WAS ctrl address")
	}
	if o.Region == "" {
		o.Region = "us-east"
	}
	if o.Devices <= 0 {
		o.Devices = 200
	}
	if o.Areas <= 0 {
		o.Areas = 20
	}
	if o.Duration <= 0 {
		o.Duration = 10 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// RunLive attaches a virtual fleet to a live multi-process cluster and
// measures end-to-end delivery over real sockets: brload trunk -> POP
// proxy -> BRASS session for deltas, and brload -> WAS ctrl -> Pylon ctrl
// -> BRASS for the publish path. Everything rides the wall clock; there
// is no simulated time in this mode. A run that applied no delta, or whose
// every probe missed, returns an error instead of a report.
func RunLive(o LiveOptions) (*Report, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	wall := sim.RealClock{}
	start := wall.Now()
	rng := rand.New(rand.NewSource(o.Seed))

	// Publish path: the WAS process's control port.
	tnet := edge.NewTCPNetwork()
	defer tnet.Close()
	tnet.SetAddr("was", o.WASAddr)
	cc, err := ctrl.Dial(tnet, "was", "brload->was", nil)
	if err != nil {
		return nil, fmt.Errorf("megadevice: %w", err)
	}
	defer cc.Close()
	wc := ctrl.NewWASClient(cc)

	// Delta path: real TCP trunks into the live POPs.
	popNames := make([]string, len(o.Pops))
	for i, addr := range o.Pops {
		popNames[i] = fmt.Sprintf("pop-%d", i)
		tnet.SetAddr(popNames[i], addr)
	}

	areas := make([]Area, o.Areas)
	for a := range areas {
		areas[a] = Area{
			App:          apps.AppTyping,
			Subscription: fmt.Sprintf("typingIndicator(threadID: %d, peer: %d)", a, ownerUser(a)),
			Topic:        string(apps.TypingTopic(uint64(a), ownerUser(a))),
			User:         viewerUser(a, o.Areas),
		}
	}
	zipf := workload.NewZipf(o.Areas, 1.1)
	assign := make([]uint32, o.Devices)
	for i := range assign {
		assign[i] = uint32(zipf.Sample(rng))
	}

	fleet, err := New(Config{
		Devices:    o.Devices,
		Areas:      areas,
		DeviceArea: assign,
		POPs:       popNames,
		Dialer:     tnet,
		Seed:       o.Seed,
		// Sched nil: the wall clock — external trunk events self-serve.
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()

	rep := &Report{
		Scenario: ScenarioLive, Devices: o.Devices,
		Areas: o.Areas, ZipfS: 1.1, Seed: o.Seed,
		SimSeconds: o.Duration.Seconds(),
	}

	// Bring the fleet online and wait for the trunks to attach.
	fleet.ConnectAll(time.Second)
	deadline := wall.Now().Add(10 * time.Second)
	for fleet.ConnectedCount() < o.Devices && wall.Now().Before(deadline) {
		sim.Sleep(wall, 20*time.Millisecond)
	}
	o.Logf("live: %d/%d devices connected over %d POP(s), %d trunk dials",
		fleet.ConnectedCount(), o.Devices, len(o.Pops), fleet.Connects.Value())
	if fleet.ConnectedCount() == 0 {
		return nil, fmt.Errorf("megadevice: no device connected — is the cluster up at %v?", o.Pops)
	}
	// Let subscribe propagation (brass -> pylon over ctrl) settle before
	// the first publish, so early probes don't all miss.
	sim.Sleep(wall, 200*time.Millisecond)

	var pubErrs int64
	var pubErr error
	publish := func(area int) {
		_, err := wc.MutateIn(o.Region, socialUser(ownerUser(area)),
			fmt.Sprintf(`setTyping(threadID: %d, on: "true")`, area))
		if err != nil {
			pubErrs++
			if pubErr == nil {
				pubErr = err
			}
			return
		}
		rep.Publishes++
	}
	probe := func(area int) {
		fleet.ProbeArm(uint32(area), wall.Now().UnixNano())
		publish(area)
		rep.Probes++
		limit := wall.Now().Add(liveProbeWait)
		for fleet.ProbeArmed(uint32(area)) {
			if wall.Now().After(limit) {
				if fleet.ProbeDisarm(uint32(area)) {
					rep.ProbeMisses++
				}
				return
			}
			sim.Sleep(wall, 100*time.Microsecond)
		}
	}

	// Drive wall-clock seconds: paced publishes plus latency probes.
	secs := int(o.Duration / time.Second)
	for s := 0; s < secs; s++ {
		tick := wall.Now().Add(time.Second)
		for i := 0; i < livePubsPerSec; i++ {
			publish(zipf.Sample(rng))
		}
		for i := 0; i < liveProbesPerSec; i++ {
			probe(zipf.Sample(rng))
		}
		if rest := tick.Sub(wall.Now()); rest > 0 {
			sim.Sleep(wall, rest)
		}
		if s%10 == 0 {
			o.Logf("live: t=%ds connected=%d publishes=%d deltas=%d applied=%d",
				s, fleet.ConnectedCount(), rep.Publishes, fleet.Deltas.Value(), fleet.Applied.Value())
		}
	}

	// Drain in-flight deltas before freezing the numbers.
	sim.Sleep(wall, 300*time.Millisecond)

	rep.WallSecs = wall.Now().Sub(start).Seconds()
	rep.Transitions = fleet.Transitions.Value()
	rep.Connects = fleet.Connects.Value()
	rep.Drops = fleet.Drops.Value()
	rep.DialFailures = fleet.DialFailures.Value()
	rep.TrunkDeaths = fleet.TrunkDeaths.Value()
	rep.Deltas = fleet.Deltas.Value()
	rep.Applied = fleet.Applied.Value()
	rep.FlowEvents = fleet.FlowEvents.Value()
	rep.Resumes = fleet.Resumes.Value()
	rep.BytesPerDevice = fleet.BytesPerDevice()
	if rep.WallSecs > 0 {
		rep.EventsPerSec = float64(rep.Applied) / rep.WallSecs
	}
	rep.LatencyNS = fleet.ApplyLatency.Snapshot()
	rep.LatencyCDF = fleet.ApplyLatency.CDF(20)
	// A fleet whose streams the WAS refuses, or whose publishes fail,
	// applies nothing; that is a failed run, not a report.
	if rep.Applied == 0 || rep.ProbeMisses == rep.Probes {
		err := fmt.Errorf("megadevice: live run applied %d deltas and missed %d of %d probes; "+
			"%d areas need a WAS graph of at least 2*Areas+1 = %d users (brnode -users)",
			rep.Applied, rep.ProbeMisses, rep.Probes, o.Areas, 2*o.Areas+1)
		if pubErr != nil {
			err = fmt.Errorf("%w; %d publishes failed, first: %v", err, pubErrs, pubErr)
		}
		return nil, err
	}
	return rep, nil
}
