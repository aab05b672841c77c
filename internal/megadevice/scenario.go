package megadevice

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/core"
	"bladerunner/internal/durlog"
	"bladerunner/internal/metrics"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/workload"
)

// Scenario names runnable via Run (and `brload -scenario`).
const (
	ScenarioDiurnal   = "diurnal"   // a simulated day of diurnal churn
	ScenarioStorm     = "storm"     // POP cut -> regional reconnect storm
	ScenarioCelebrity = "celebrity" // publish burst into the hottest topic
	ScenarioReplay    = "replay"    // durable-log backlog replay for late joiners
)

// Options parameterizes a scenario run.
type Options struct {
	Scenario string
	Devices  int
	Areas    int
	// ZipfS is the popularity exponent assigning devices to areas
	// (default 1.1: paper-shaped "a few celebrity topics dominate").
	ZipfS float64
	Seed  int64
	// SimDuration is the simulated span (defaults: diurnal 24h, storm
	// 60m, celebrity 30m).
	SimDuration time.Duration
	// Short trims publish/probe volume for CI smoke runs; the device
	// count and simulated span stay full-size.
	Short bool
	// Logf receives progress lines (nil discards).
	Logf func(format string, args ...any)
}

// Report is the scenario's measured outcome, serialized by brload
// -bench-json.
type Report struct {
	Scenario   string  `json:"scenario"`
	Devices    int     `json:"devices"`
	Streams    int     `json:"streams"`
	Areas      int     `json:"areas"`
	ZipfS      float64 `json:"zipf_s"`
	Seed       int64   `json:"seed"`
	Short      bool    `json:"short"`
	SimSeconds float64 `json:"sim_seconds"`
	WallSecs   float64 `json:"wall_seconds"`

	// Scale headline: simulated events serviced per wall second (engine
	// events + per-device delta applications).
	EventsPerSec   float64 `json:"events_per_sec"`
	BytesPerDevice float64 `json:"bytes_per_device"`

	EngineEvents uint64 `json:"engine_events"`
	Transitions  int64  `json:"transitions"`
	Connects     int64  `json:"connects"`
	Drops        int64  `json:"drops"`
	DialFailures int64  `json:"dial_failures"`
	TrunkDeaths  int64  `json:"trunk_deaths"`
	Publishes    int64  `json:"publishes"`
	Deltas       int64  `json:"deltas"`
	Applied      int64  `json:"applied"`
	FlowEvents   int64  `json:"flow_events"`
	Resumes      int64  `json:"resumes"` // shed episodes repaired by reopening the shared stream

	Probes      int64 `json:"probes"`
	ProbeMisses int64 `json:"probe_misses"`
	// Delivery latency (mutate -> first edge apply), wall clock.
	LatencyNS  metrics.Snapshot[time.Duration]   `json:"latency_ns"`
	LatencyCDF []metrics.CDFPoint[time.Duration] `json:"latency_cdf,omitempty"`

	// Storm-only: per-minute connected counts around the cut, plus the
	// simulated minutes from cut to full reattach.
	ConnectedSeries []int   `json:"connected_series,omitempty"`
	ReattachMinutes float64 `json:"reattach_minutes,omitempty"`
	// Celebrity-only: fanout throughput while draining the hot-topic
	// burst (per-device applies per wall second).
	FanoutPerSec float64 `json:"fanout_per_sec,omitempty"`
	HotTopicSubs int     `json:"hot_topic_subs,omitempty"`

	// Replay-only: late joiners resuming from the "earliest" cursor pull
	// the backlog from the BRASS durable log instead of backend reads.
	ReplaySeedDevices    int   `json:"replay_seed_devices,omitempty"`
	ReplayLateJoiners    int   `json:"replay_late_joiners,omitempty"`
	ReplayBacklog        int64 `json:"replay_backlog,omitempty"`
	ReplayCatchUpApplied int64 `json:"replay_catchup_applied,omitempty"`
	LogAppends           int64 `json:"log_appends,omitempty"`
	LogResumes           int64 `json:"log_resumes,omitempty"`
	LogCatchUpDeltas     int64 `json:"log_catchup_deltas,omitempty"`
	LogExpired           int64 `json:"log_expired,omitempty"`

	// GitDescribe is run metadata stamped by the emitting command
	// (brload), so every BENCH json records the tree it came from.
	GitDescribe string `json:"git_describe,omitempty"`
}

// A scenario's pacing against the live cluster: the peak background publish
// rate (scaled by the diurnal curve) and the delivery-latency probe rate
// (fractional rates accumulate), each per simulated minute and each
// trimmed under Short, and the wall-clock wait for one probe's delivery.
const (
	pubsPerMinute, shortPubsPerMinute     = 120, 30
	probesPerMinute, shortProbesPerMinute = 2.0, 0.2
	probeWait                             = 500 * time.Millisecond
)

// paperDevices is the fleet the paper's fleet-wide Fig 10 curves count
// over: about 2 B devices.
const paperDevices = 2e9

// dropsPerDeviceMinute is the involuntary edge-drop rate of one online
// device a simulated minute: the paper's fleet-wide drop curve over the
// paper's fleet, 18M/2B = 0.009 at the trough and 33M/2B = 0.0165 at the
// peak hour.
var dropsPerDeviceMinute = workload.Diurnal{
	Min:      workload.EdgeConnectionDropsPerMinute.Min / paperDevices,
	Max:      workload.EdgeConnectionDropsPerMinute.Max / paperDevices,
	PeakHour: workload.EdgeConnectionDropsPerMinute.PeakHour,
}

func (o *Options) normalize() error {
	switch o.Scenario {
	case ScenarioDiurnal, ScenarioStorm, ScenarioCelebrity, ScenarioReplay:
	default:
		return fmt.Errorf("megadevice: unknown scenario %q", o.Scenario)
	}
	if o.Devices <= 0 {
		o.Devices = 1_000_000
	}
	if o.Areas <= 0 {
		o.Areas = 1000
	}
	if o.ZipfS == 0 {
		o.ZipfS = 1.1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SimDuration <= 0 {
		switch o.Scenario {
		case ScenarioDiurnal:
			o.SimDuration = 24 * time.Hour
		case ScenarioStorm:
			o.SimDuration = 60 * time.Minute
		case ScenarioReplay:
			o.SimDuration = 10 * time.Minute
		default:
			o.SimDuration = 30 * time.Minute
		}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// ownerUser/viewerUser derive the publishing and subscribing identities
// for an area. Both must be real social-graph users: the typing app's
// payload fetch runs the viewer through the privacy check, so the cluster
// is built with 2*Areas+1 users — owners first, then one representative
// viewer per area — and blocks disabled (a blocked representative would
// silence an entire area).
func ownerUser(area int) uint64              { return uint64(area) + 1 }
func viewerUser(area, totalAreas int) uint64 { return uint64(totalAreas+area) + 1 }

func socialUser(u uint64) socialgraph.UserID { return socialgraph.UserID(u) }

// Run executes one scenario: it builds a live core.Cluster (wall clock),
// a Fleet whose transitions ride a sim.Engine (virtual time), assigns
// devices to areas by Zipf popularity, and pumps simulated minutes while
// real publishes flow through the cluster to the trunks. The simulated
// span compresses into wall-clock minutes because idle virtual time costs
// nothing — only transitions and real deltas cost wall time.
func Run(o Options) (*Report, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	if o.Scenario == ScenarioReplay {
		return runReplay(o)
	}
	// The scenario spans two clocks on purpose: fleet transitions ride
	// the virtual engine, while the live cluster and the latency probes
	// ride the wall clock (through sim.RealClock, honoring the repo's
	// virtual-time invariant).
	wall := sim.RealClock{}
	start := wall.Now()
	rng := rand.New(rand.NewSource(o.Seed))

	cluster, err := core.NewCluster(clusterConfig(o.Areas), nil)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	// Areas: one typing-indicator thread each; devices watch the thread
	// owner's typing state.
	areas := make([]Area, o.Areas)
	for a := range areas {
		areas[a] = Area{
			App:          apps.AppTyping,
			Subscription: fmt.Sprintf("typingIndicator(threadID: %d, peer: %d)", a, ownerUser(a)),
			Topic:        string(apps.TypingTopic(uint64(a), ownerUser(a))),
			User:         viewerUser(a, o.Areas),
		}
	}

	// Zipf-popular area assignment: a few areas hold a large share of
	// the fleet (celebrity structure), the tail is sparse.
	zipf := workload.NewZipf(o.Areas, o.ZipfS)
	assign := make([]uint32, o.Devices)
	areaSubs := make([]int, o.Areas)
	for i := range assign {
		a := zipf.Sample(rng)
		assign[i] = uint32(a)
		areaSubs[a]++
	}

	t0 := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	engine := sim.NewEngine(t0)
	fleet, err := New(Config{
		Devices:    o.Devices,
		Areas:      areas,
		StreamArea: func(dev uint32, _ int) uint32 { return assign[dev] },
		POPs:       cluster.POPTargets(),
		Dialer:     cluster.Net,
		Sched:      engine,
		Seed:       o.Seed,
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()

	rep := &Report{
		Scenario: o.Scenario, Devices: o.Devices, Streams: fleet.Streams(),
		Areas: o.Areas, ZipfS: o.ZipfS, Seed: o.Seed, Short: o.Short,
		SimSeconds: o.SimDuration.Seconds(),
	}

	// Online fraction over the day: the fleet's own diurnal curve, 62% of
	// the devices online at the trough and 97% at the peak hour (no paper
	// figure gives it); storm and celebrity hold the fleet near-fully
	// online so the failure/fanout signal dominates.
	online := workload.Diurnal{Min: 0.62, Max: 0.97, PeakHour: 19}
	if o.Scenario != ScenarioDiurnal {
		online = workload.Diurnal{Min: 0.95, Max: 0.97, PeakHour: 19}
	}

	minutes := int(o.SimDuration / time.Minute)
	target := int(float64(o.Devices) * online.At(t0))
	// Bring the initial window online spread across the first simulated
	// minute (the m=0 engine step executes the dials).
	for dev := 0; dev < target; dev++ {
		fleet.ConnectAt(uint32(dev), t0.Add(time.Duration(dev)*time.Minute/time.Duration(o.Devices)))
	}

	// Storm plan: cut half the POPs a third of the way in, heal at two
	// thirds.
	pops := cluster.POPTargets()
	cutAt, healAt := minutes/3, 2*minutes/3
	cutPops := pops[:len(pops)/2]
	cutMinute := -1
	reattached := -1

	// Celebrity plan: burst into the hottest area a third of the way in.
	hotArea := 0
	for a := 1; a < o.Areas; a++ {
		if areaSubs[a] > areaSubs[hotArea] {
			hotArea = a
		}
	}
	rep.HotTopicSubs = areaSubs[hotArea]
	burstPubs, pubRate, probeRate := 100, pubsPerMinute, probesPerMinute
	if o.Short {
		burstPubs, pubRate, probeRate = 25, shortPubsPerMinute, shortProbesPerMinute
	}

	publish := func(area int) {
		_, err := cluster.WAS.Mutate(socialUser(ownerUser(area)),
			fmt.Sprintf(`setTyping(threadID: %d, on: "true")`, area))
		if err == nil {
			rep.Publishes++
		}
	}
	probe := func(area int) {
		fleet.ProbeArm(uint32(area), wall.Now().UnixNano())
		publish(area)
		rep.Probes++
		deadline := wall.Now().Add(probeWait)
		for fleet.ProbeArmed(uint32(area)) {
			if wall.Now().After(deadline) {
				if fleet.ProbeDisarm(uint32(area)) {
					rep.ProbeMisses++
				}
				return
			}
			sim.Sleep(wall, 100*time.Microsecond)
		}
	}

	probeDebt := 0.0
	for m := 0; m < minutes; m++ {
		simNow := t0.Add(time.Duration(m) * time.Minute)
		next := simNow.Add(time.Minute)
		fleet.Service()

		// Storm cut/heal (flips the shared network; severed trunks
		// surface as HandleClose -> Service redials).
		if o.Scenario == ScenarioStorm {
			if m == cutAt {
				o.Logf("minute %d: cutting POPs %v", m, cutPops)
				cluster.Net.SetDownGroup(true, cutPops...)
				cutMinute = m
			}
			if m == healAt {
				o.Logf("minute %d: healing POPs %v", m, cutPops)
				cluster.Net.SetDownGroup(false, cutPops...)
			}
		}

		// Population follows the diurnal target: devices below the
		// target should be online, the rest offline.
		newTarget := int(float64(o.Devices) * online.At(simNow))
		for dev := target; dev < newTarget; dev++ {
			fleet.ConnectAt(uint32(dev), simNow.Add(time.Duration(rng.Int63n(int64(time.Minute)))))
		}
		for dev := newTarget; dev < target; dev++ {
			fleet.OffAt(uint32(dev), simNow.Add(time.Duration(rng.Int63n(int64(time.Minute)))))
		}
		target = newTarget

		// Involuntary drops, Poisson around the curve's rate.
		drops := workload.Poisson(rng, dropsPerDeviceMinute.At(simNow)*float64(target))
		for i := int64(0); i < drops; i++ {
			dev := uint32(rng.Intn(target))
			if fleet.State(dev) == StateConnected {
				fleet.DropAt(dev, simNow.Add(time.Duration(rng.Int63n(int64(time.Minute)))))
			}
		}

		engine.RunUntil(next)
		fleet.Service()

		// Background publishes through the live cluster, paced by the
		// diurnal publication curve. Uniform area targeting spreads the
		// load the way Table 1's breadth does; the celebrity scenario
		// supplies the hot-topic depth explicitly.
		pubs := int(float64(pubRate) * online.At(simNow))
		for i := 0; i < pubs; i++ {
			publish(rng.Intn(o.Areas))
		}
		if o.Scenario == ScenarioCelebrity && m == cutAt {
			o.Logf("minute %d: celebrity burst, %d publishes into area %d (%d subscribers)",
				m, burstPubs, hotArea, areaSubs[hotArea])
			base := fleet.Applied.Value()
			burstStart := wall.Now()
			for i := 0; i < burstPubs; i++ {
				publish(hotArea)
			}
			want := base + int64(burstPubs)*int64(areaSubs[hotArea])*95/100
			for fleet.Applied.Value() < want && wall.Now().Sub(burstStart) < 30*time.Second {
				sim.Sleep(wall, time.Millisecond)
			}
			if w := wall.Now().Sub(burstStart).Seconds(); w > 0 {
				rep.FanoutPerSec = float64(fleet.Applied.Value()-base) / w
			}
		}

		// Delivery probes (fractional rate accumulates).
		probeDebt += probeRate
		for probeDebt >= 1 {
			probeDebt--
			probe(zipf.Sample(rng))
		}

		if o.Scenario == ScenarioStorm && m >= cutAt-2 {
			c := fleet.ConnectedCount()
			rep.ConnectedSeries = append(rep.ConnectedSeries, c)
			if cutMinute >= 0 && reattached < 0 && m > cutAt && int64(c)*1000 >= int64(target)*995 {
				reattached = m
				rep.ReattachMinutes = float64(m - cutMinute)
			}
		}
		if m%180 == 0 {
			o.Logf("minute %4d: connected=%d deltas=%d applied=%d drops=%d wall=%.1fs",
				m, fleet.ConnectedCount(), fleet.Deltas.Value(), fleet.Applied.Value(),
				fleet.Drops.Value(), wall.Now().Sub(start).Seconds())
		}
	}

	// Drain: let in-flight deltas land, then freeze the numbers.
	cluster.Quiesce()
	sim.Sleep(wall, 100*time.Millisecond)
	fleet.Service()

	rep.count(fleet, engine, wall.Now().Sub(start))
	rep.LatencyCDF = fleet.ApplyLatency.CDF(20)
	return rep, nil
}

// clusterConfig is the cluster every scenario runs on: four POPs and a
// social graph of 2*areas+1 users with blocks disabled (see ownerUser).
func clusterConfig(areas int) core.Config {
	ccfg := core.DefaultConfig()
	ccfg.POPs = 4
	ccfg.Graph.Users = 2*areas + 1
	ccfg.Graph.BlockProb = 0
	if ccfg.Graph.MeanFriends >= ccfg.Graph.Users {
		ccfg.Graph.MeanFriends = ccfg.Graph.Users - 1
	}
	return ccfg
}

// count freezes a finished run's fleet and engine counters into the report,
// with the wall time the run took.
func (rep *Report) count(fleet *Fleet, engine *sim.Engine, wall time.Duration) {
	rep.WallSecs = wall.Seconds()
	rep.EngineEvents = engine.Executed()
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
		rep.EventsPerSec = (float64(rep.EngineEvents) + float64(rep.Applied)) / rep.WallSecs
	}
	rep.LatencyNS = fleet.ApplyLatency.Snapshot()
}

// runReplay demonstrates the durable log end to end at fleet scale: a
// seed population connects, a message backlog flows through Messenger
// (every delivery appended to the BRASS durable log), and then a late
// population joins subscribing from the "earliest" cursor — their entire
// catch-up is served from the edge log, with the WAS untouched. The
// topology is a single region with one BRASS host so the per-host log
// provably holds every topic's backlog; multi-host placement is the
// sticky-routing story, not this scenario's.
func runReplay(o Options) (*Report, error) {
	wall := sim.RealClock{}
	start := wall.Now()

	ccfg := clusterConfig(o.Areas)
	ccfg.Regions = []string{"us-east"}
	ccfg.BRASSHostsPerRegion = 1
	ccfg.Durlog = &core.DurlogConfig{}
	cluster, err := core.NewCluster(ccfg, nil)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	// Areas: one Messenger thread per area; the shared stream subscribes
	// as the mailbox owner, from the earliest retained cursor.
	areas := make([]Area, o.Areas)
	tids := make([]uint64, o.Areas)
	for a := range areas {
		owner := ownerUser(a)
		raw, err := cluster.WAS.Mutate(socialUser(owner),
			fmt.Sprintf(`createThread(members: "%d")`, owner))
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(raw, &tids[a]); err != nil {
			return nil, fmt.Errorf("megadevice: createThread result: %w", err)
		}
		areas[a] = Area{
			App:          apps.AppMessenger,
			Subscription: "messenger",
			Topic:        string(apps.MailboxTopic(socialUser(owner))),
			User:         owner,
			Cursor:       durlog.SentinelEarliest,
		}
	}

	// Round-robin (not Zipf) area assignment: the replay contract is
	// per-area ("every area's backlog is retained and replayed"), so every
	// area needs both seed coverage — a stream whose deliveries populate
	// the log — and at least one late joiner to replay it.
	assign := make([]uint32, o.Devices)
	for i := range assign {
		assign[i] = uint32(i % o.Areas)
	}

	// Seed devices home on POP 0; late joiners spread over POPs 1..3, so
	// their first subscribe creates NEW trunks whose request carries the
	// area cursor.
	seedDevs := o.Devices / 2
	t0 := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	engine := sim.NewEngine(t0)
	fleet, err := New(Config{
		Devices:    o.Devices,
		Areas:      areas,
		StreamArea: func(dev uint32, _ int) uint32 { return assign[dev] },
		POPs:       cluster.POPTargets(),
		Dialer:     cluster.Net,
		Sched:      engine,
		Seed:       o.Seed,
		HomePOP: func(dev uint32) int {
			if int(dev) < seedDevs {
				return 0
			}
			return 1 + int(dev)%3
		},
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()

	rep := &Report{
		Scenario: o.Scenario, Devices: o.Devices, Streams: fleet.Streams(),
		Areas: o.Areas, ZipfS: o.ZipfS, Seed: o.Seed, Short: o.Short,
		SimSeconds:        o.SimDuration.Seconds(),
		ReplaySeedDevices: seedDevs, ReplayLateJoiners: o.Devices - seedDevs,
	}

	// Phase 1: seed population online.
	for dev := 0; dev < seedDevs; dev++ {
		fleet.ConnectAt(uint32(dev), t0.Add(time.Duration(dev)*time.Minute/time.Duration(o.Devices)))
	}
	engine.RunUntil(t0.Add(2 * time.Minute))
	fleet.Service()

	// Phase 2: backlog through the live cluster; every delivered message
	// lands in the host durable log. The subscribe handshake is
	// wall-asynchronous, so the first message per area doubles as a
	// delivery probe: it is retried until a live stream applies it,
	// proving the area's subscription (and therefore its log) is active
	// before the rest of the backlog flows.
	backlogPerArea := 8
	if o.Short {
		backlogPerArea = 3
	}
	sendBacklog := func(a, i int) {
		_, err := cluster.WAS.Mutate(socialUser(ownerUser(a)),
			fmt.Sprintf(`sendMessage(threadID: %d, text: "backlog-%d")`, tids[a], i))
		if err == nil {
			rep.Publishes++
		}
	}
	for a := 0; a < o.Areas; a++ {
		for try := 0; try < 50; try++ {
			fleet.ProbeArm(uint32(a), wall.Now().UnixNano())
			sendBacklog(a, 0)
			pd := wall.Now().Add(2 * time.Second)
			for fleet.ProbeArmed(uint32(a)) && wall.Now().Before(pd) {
				sim.Sleep(wall, time.Millisecond)
			}
			if !fleet.ProbeDisarm(uint32(a)) {
				break // claimed: the area's stream is live
			}
		}
	}
	for i := 1; i < backlogPerArea; i++ {
		for a := 0; a < o.Areas; a++ {
			sendBacklog(a, i)
		}
	}
	rep.ReplayBacklog = rep.Publishes
	cluster.Quiesce()
	sim.Sleep(wall, 200*time.Millisecond)
	fleet.Service()
	seedApplied := fleet.Applied.Value()
	o.Logf("backlog published: %d messages, seed applied %d", rep.ReplayBacklog, seedApplied)

	// Phase 3: late joiners subscribe from "earliest"; their catch-up is
	// the whole backlog, replayed from the edge.
	joinAt := t0.Add(5 * time.Minute)
	for dev := seedDevs; dev < o.Devices; dev++ {
		fleet.ConnectAt(uint32(dev), joinAt.Add(time.Duration(dev)*time.Minute/time.Duration(o.Devices)))
	}
	engine.RunUntil(joinAt.Add(2 * time.Minute))
	fleet.Service()

	// Each joiner trunk-stream replays its area's backlog as one catch-up
	// batch (the shared stream fans it to the devices attached at apply
	// time — the trunk model's usual coalescing). Drain by waiting for the
	// decoded-delta counter to go quiet.
	deadline := wall.Now().Add(30 * time.Second)
	for wall.Now().Before(deadline) {
		before := fleet.Deltas.Value()
		sim.Sleep(wall, 300*time.Millisecond)
		if fleet.Deltas.Value() == before {
			break
		}
	}
	cluster.Quiesce()
	sim.Sleep(wall, 100*time.Millisecond)
	fleet.Service()

	rep.ReplayCatchUpApplied = fleet.Applied.Value() - seedApplied
	rep.count(fleet, engine, wall.Now().Sub(start))
	for _, h := range cluster.Hosts {
		rep.LogResumes += h.LogResumes.Value()
		rep.LogCatchUpDeltas += h.LogCatchUpDeltas.Value()
		rep.LogExpired += h.LogExpired.Value()
		if l := h.DurLog(); l != nil {
			rep.LogAppends += l.Appends.Value()
		}
	}
	o.Logf("replay: joiners applied %d of %d backlog deltas from the log (log resumes=%d, expired=%d)",
		rep.ReplayCatchUpApplied, int64(backlogPerArea)*int64(o.Devices-seedDevs), rep.LogResumes, rep.LogExpired)
	return rep, nil
}
