// Region-scoped chaos: a whole region going dark and an inter-region
// partition healing, driven against the fully wired multi-region stack
// (geo topology, per-region Pylons, cross-region replication links, TAO
// followers). The assertions are the paper's geo-failover contract:
// streams severed with their region fail over to a healthy one as a
// REWRITE of the same stream (trace identity and admission state ride the
// stored request across the boundary), mailbox views converge gap-free,
// control-class deltas keep flowing, and nothing leaks.
package faults_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/faults"
	"bladerunner/internal/region"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
)

// geoConfig wires a 3-region cluster with small but non-zero cross-region
// latencies and replication lags, fully determined by seed.
func geoConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Regions = []string{"us-east", "eu-west", "ap-south"}
	cfg.POPs = 3 // one per region (round-robin homing)
	cfg.Graph.Users = 100
	cfg.Graph.BlockProb = 0
	cfg.Geo = &region.Config{
		Regions: cfg.Regions,
		Latency: sim.Uniform{Lo: 100 * time.Microsecond, Hi: 500 * time.Microsecond},
		ReplLag: sim.Uniform{Lo: time.Millisecond, Hi: 4 * time.Millisecond},
		Seed:    seed,
	}
	return cfg
}

// geoDevice builds a receiver device with fast, seeded backoff.
func geoDevice(c *core.Cluster, fn *faults.FaultNetwork, uid socialgraph.UserID, seed int64) *device.Device {
	return c.NewDeviceVia(fn, device.Config{
		User:        uid,
		Backoff:     faults.BackoffPolicy{Base: 10 * time.Millisecond, Max: 160 * time.Millisecond},
		BackoffSeed: seed*1000 + int64(uid),
	})
}

// stickyRegion resolves which region currently serves st via its sticky
// header ("" while unset).
func stickyRegion(c *core.Cluster, st *device.Stream) string {
	host := st.Request().Header[burst.HdrStickyBRASS]
	if host == "" {
		return ""
	}
	return c.Gate.RegionOf(host)
}

// TestChaosRegionCutFailover kills the receivers' entire home region and
// asserts every live stream fails over to a healthy region with a gap-free
// mailbox view, preserved trace-stream identity, preserved admission
// state, and a final FlowRecovered — then heals the region and checks the
// cluster converges with zero leaked goroutines.
func TestChaosRegionCutFailover(t *testing.T) {
	seed := chaosSeed(t)
	goroutinesBefore := runtime.NumGoroutine()

	cfg := geoConfig(seed)
	c := core.MustNewCluster(cfg, nil)
	fn := faults.NewFaultNetwork(c.Net, nil)
	rf := faults.NewRegionFaults(fn, c.Gate, c.Topo)

	const cut = "eu-west" // receivers' home: uid%3 == 1
	// Author homed in us-east (90 % 3 == 0): its region survives the cut.
	author := c.NewDevice(socialgraph.UserID(90))

	const nDevices = 4
	devices := make([]*device.Device, nDevices)
	streams := make([]*device.Stream, nDevices)
	watchers := make([]*streamWatcher, nDevices)
	threads := make([]uint64, nDevices)
	traceIDs := make([]string, nDevices)
	const seededAdmission = "1500@1"
	for i := 0; i < nDevices; i++ {
		uid := socialgraph.UserID(10 + 3*i) // 10,13,16,19 → all home eu-west
		if home := c.Topo.Home(uint64(uid)); home != cut {
			t.Fatalf("uid %d homed in %q, want %q", uid, home, cut)
		}
		devices[i] = geoDevice(c, fn, uid, seed)
		if err := devices[i].Connect(); err != nil {
			t.Fatal(err)
		}
		// Seed a per-stream admission state so the preservation of
		// HdrAdmissionState across the cross-region rewrite is observable
		// even when no shed transition rewrites it organically.
		st, err := devices[i].Subscribe(apps.AppMessenger, "messenger",
			burst.Header{brass.HdrAdmissionState: seededAdmission})
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = st
		watchers[i] = watch(st)
		traceIDs[i] = st.Request().Header[burst.HdrTraceStream]

		threads[i] = newThread(t, author, 90, uid)
	}
	waitFor(t, "home-region subscriptions", func() bool {
		for i := 0; i < nDevices; i++ {
			uid := socialgraph.UserID(10 + 3*i)
			if len(c.RegionPylons[cut].Subscribers(apps.MailboxTopic(uid))) < 1 {
				return false
			}
		}
		return true
	})
	// The sticky rewrite travels back to the device asynchronously; wait
	// until every stored request shows its home-region serving host.
	waitFor(t, "pre-cut sticky rewrites", func() bool {
		for _, st := range streams {
			if stickyRegion(c, st) != cut {
				return false
			}
		}
		return true
	})

	send := func(round string) {
		t.Helper()
		for i := 0; i < nDevices; i++ {
			msg := fmt.Sprintf(`sendMessage(threadID: %d, text: "%s")`, threads[i], round)
			if _, err := author.Mutate(msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	var sent uint64

	// Baseline: cross-region replication (us-east origin → eu-west
	// serving BRASS) delivers gap-free.
	send("pre-cut")
	sent++
	for i, w := range watchers {
		w := w
		waitFor(t, fmt.Sprintf("baseline delivery to device %d", i),
			func() bool { return w.hasAll(sent) })
	}

	// Region-cut: eu-west goes dark as ONE event — topology, gate, and
	// every dialable target in the region.
	before := reconnects(devices)
	rf.CutRegion(cut)

	waitFor(t, "all devices re-attached cross-region", func() bool { return reconnected(devices, before) })
	waitFor(t, "all streams rewritten to a healthy region", func() bool {
		for i := range streams {
			r := stickyRegion(c, streams[i])
			if r == "" || r == cut || !c.Topo.RegionUp(r) {
				return false
			}
			// The failover host must hold a live interest in ITS region's
			// Pylon for the stream's mailbox topic.
			host := streams[i].Request().Header[burst.HdrStickyBRASS]
			uid := socialgraph.UserID(10 + 3*i)
			found := false
			for _, s := range c.RegionPylons[r].Subscribers(apps.MailboxTopic(uid)) {
				if s == host {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	})

	// Failover preserved stream identity and admission state: both ride
	// the stored (rewritten) request across the region boundary.
	for i, st := range streams {
		hdr := st.Request().Header
		if got := hdr[burst.HdrTraceStream]; got != traceIDs[i] {
			t.Errorf("stream %d trace identity changed across failover: %q → %q",
				i, traceIDs[i], got)
		}
		if got := hdr[brass.HdrAdmissionState]; got == "" {
			t.Errorf("stream %d lost HdrAdmissionState across failover", i)
		}
	}

	// Post-failover traffic converges gap-free (catch-up closes anything
	// dropped in the failover window).
	send("post-cut")
	sent++
	for i, w := range watchers {
		w := w
		waitFor(t, fmt.Sprintf("gap-free view on device %d after failover", i),
			func() bool { return w.hasAll(sent) })
	}

	// Control-class deltas were never shed: every stream saw its recovery
	// notice and none were terminated (losing a rewrite/flow delta would
	// have wedged or killed them).
	for i, w := range watchers {
		recovered, last := w.snapshot()
		if recovered == 0 {
			t.Errorf("stream %d never reported FlowRecovered", i)
		}
		if last != burst.FlowRecovered {
			t.Errorf("stream %d final flow = %v, want FlowRecovered", i, last)
		}
		if w.isEnded() {
			t.Errorf("device %d lost its stream (control delta dropped?)", i)
		}
	}
	// No payload deltas were admission-shed either — the failover itself
	// creates no overload, so the only delivery machinery exercised is the
	// control path (rewrites, flow status), whose never-shed guarantee the
	// stream liveness above depends on.
	for _, h := range c.Hosts {
		if n := h.StreamSheds.Value(); n != 0 {
			t.Errorf("host %s shed %d payload deltas during failover", h.ID(), n)
		}
	}

	// Heal: the region comes back, parked replication drains, and the
	// next round still delivers everywhere.
	rf.HealRegion(cut)
	if !c.Plane.FlushWait(10 * time.Second) {
		t.Error("replication queues did not drain after heal")
	}
	send("post-heal")
	sent++
	for i, w := range watchers {
		w := w
		waitFor(t, fmt.Sprintf("post-heal delivery to device %d", i),
			func() bool { return w.hasAll(sent) })
	}
	if c.Plane.ReplDelivered.Value() == 0 {
		t.Error("no cross-region replication deliveries recorded")
	}

	for _, d := range devices {
		d.Close()
	}
	author.Close()
	for _, w := range watchers {
		w.done.Wait()
	}
	c.Close()
	waitFor(t, "goroutines drained", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutinesBefore+3
	})
}

// TestChaosInterRegionPartitionHeal partitions the author's region away
// from the receiver's while traffic keeps flowing: events park on the
// replication link (none delivered across, none lost), and the heal drains
// the backlog IN ORDER so the receiver converges to a gap-free view — with
// no leaked worker goroutines afterwards.
func TestChaosInterRegionPartitionHeal(t *testing.T) {
	seed := chaosSeed(t)
	goroutinesBefore := runtime.NumGoroutine()

	cfg := geoConfig(seed)
	c := core.MustNewCluster(cfg, nil)
	fn := faults.NewFaultNetwork(c.Net, nil)
	rf := faults.NewRegionFaults(fn, c.Gate, c.Topo)

	author := c.NewDevice(socialgraph.UserID(90)) // us-east
	uid := socialgraph.UserID(13)                 // eu-west
	recv := geoDevice(c, fn, uid, seed)
	if err := recv.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := recv.Subscribe(apps.AppMessenger, "messenger", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := watch(st)

	thread := newThread(t, author, 90, uid)
	waitFor(t, "subscription", func() bool {
		return len(c.RegionPylons["eu-west"].Subscribers(apps.MailboxTopic(uid))) >= 1
	})

	var sent uint64
	send := func(round string) {
		t.Helper()
		if _, err := author.Mutate(fmt.Sprintf(`sendMessage(threadID: %d, text: "%s")`, thread, round)); err != nil {
			t.Fatal(err)
		}
		sent++
	}

	send("pre-partition")
	waitFor(t, "baseline delivery", func() bool { return w.hasAll(sent) })

	// Partition us-east ↔ eu-west. The receiver's stream stays up (its
	// whole path is intra-eu-west); only replication parks.
	rf.PartitionLink("us-east", "eu-west")

	const parked = 5
	for k := 0; k < parked; k++ {
		send(fmt.Sprintf("during-partition-%d", k))
	}
	// The partition-window messages must NOT arrive while partitioned.
	preHeal := sent - parked
	time.Sleep(50 * time.Millisecond)
	if w.hasAll(preHeal + 1) {
		t.Fatal("partitioned link delivered an event across the partition")
	}
	if d := c.Plane.QueueDepths()[region.Link{Src: "us-east", Dst: "eu-west"}]; d == 0 {
		t.Error("no replication backlog parked on the partitioned link")
	}

	// Heal: the backlog drains in order; the receiver converges gap-free
	// without any reconnect (its transport never failed).
	rf.HealLink("us-east", "eu-west")
	waitFor(t, "post-heal convergence", func() bool { return w.hasAll(sent) })
	if got := recv.Reconnects.Value(); got != 0 {
		t.Errorf("receiver reconnected %d times during a pure replication partition", got)
	}
	w.mu.Lock()
	regressed := w.regressed
	w.mu.Unlock()
	if regressed {
		t.Error("sequence regression after heal (out-of-order backlog drain)")
	}

	recv.Close()
	author.Close()
	w.done.Wait()
	c.Close()
	waitFor(t, "goroutines drained", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutinesBefore+3
	})
}
