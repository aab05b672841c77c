package megadevice

import (
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/edge"
	"bladerunner/internal/faults"
	"bladerunner/internal/sim"
)

var t0 = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

// virtualFleet builds an engine-driven fleet with no dialer (trunks are
// virtual: attach always succeeds, no real session).
func virtualFleet(t testing.TB, devices, areas int) (*Fleet, *sim.Engine) {
	t.Helper()
	engine := sim.NewEngine(t0)
	as := make([]Area, areas)
	for i := range as {
		as[i] = Area{App: "test", Subscription: fmt.Sprintf("sub-%d", i), Topic: fmt.Sprintf("/T/%d", i), User: 1}
	}
	f, err := New(Config{
		Devices: devices,
		Areas:   as,
		POPs:    []string{"pop-0", "pop-1"},
		Sched:   engine,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, engine
}

func TestFleetConnectsAllVirtual(t *testing.T) {
	f, engine := virtualFleet(t, 1000, 10)
	f.ConnectAll(time.Minute)
	engine.Run()
	if got := f.ConnectedCount(); got != 1000 {
		t.Fatalf("connected = %d, want 1000", got)
	}
	if got := f.Connects.Value(); got != 1000 {
		t.Fatalf("Connects = %d, want 1000", got)
	}
	// Every device must be attached to its trunk's shared subscription.
	f.mu.Lock()
	for dev, i := range f.tab.subIdx {
		if i == noIndex {
			f.mu.Unlock()
			t.Fatalf("device %d not attached", dev)
		}
	}
	trunks := len(f.trunks)
	f.mu.Unlock()
	if trunks != 1 {
		t.Fatalf("trunks = %d, want 1 (all devices start on pop-0)", trunks)
	}
}

func TestDropReconnectRotatesPOP(t *testing.T) {
	f, engine := virtualFleet(t, 1, 1)
	f.ConnectAt(0, t0)
	engine.Run()
	if f.State(0) != StateConnected {
		t.Fatal("device did not connect")
	}
	f.DropAt(0, engine.Now().Add(time.Second))
	engine.Run()
	if f.State(0) != StateConnected {
		t.Fatalf("device did not reconnect (state %d)", f.State(0))
	}
	if d, c := f.Drops.Value(), f.Connects.Value(); d != 1 || c != 2 {
		t.Fatalf("Drops=%d Connects=%d, want 1/2", d, c)
	}
	f.mu.Lock()
	pop := f.trunkIDs[f.tab.trunk[0]].pop
	idx := f.tab.subIdx[0]
	f.mu.Unlock()
	if pop != "pop-1" {
		t.Fatalf("reconnected to %s, want rotated pop-1", pop)
	}
	if idx == noIndex {
		t.Fatal("stream not re-attached after reconnect")
	}
	// The reconnect must have waited out a backoff delay.
	if engine.Now().Sub(t0) < time.Second+25*time.Millisecond {
		t.Fatalf("reconnect too fast: %v", engine.Now().Sub(t0))
	}
}

func TestOffGoesIdleUntilReconnected(t *testing.T) {
	f, engine := virtualFleet(t, 2, 1)
	f.ConnectAll(0)
	engine.Run()
	f.OffAt(1, engine.Now().Add(time.Second))
	engine.Run()
	if f.State(1) != StateIdle || f.ConnectedCount() != 1 {
		t.Fatalf("state=%d connected=%d, want Idle/1", f.State(1), f.ConnectedCount())
	}
	if f.Pending() != 0 {
		t.Fatalf("pending = %d after Run", f.Pending())
	}
	// Off while a dial is pending: the stale kDial must not resurrect it.
	f.DropAt(0, engine.Now().Add(time.Second))
	f.OffAt(0, engine.Now().Add(time.Second+10*time.Millisecond))
	engine.Run()
	if f.State(0) != StateIdle {
		t.Fatalf("state=%d, want Idle (off must beat the pending redial)", f.State(0))
	}
	f.ConnectAt(0, engine.Now().Add(time.Minute))
	engine.Run()
	if f.State(0) != StateConnected {
		t.Fatal("device did not come back after Off")
	}
}

// failPopDialer fails configured targets and returns a drained pipe
// otherwise.
type failPopDialer struct{ fail map[string]bool }

func (d failPopDialer) Dial(target string) (io.ReadWriteCloser, error) {
	if d.fail[target] {
		return nil, errors.New("dial refused")
	}
	c, s := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, s) }()
	return c, nil
}

func TestDialFailureBacksOffAndRotates(t *testing.T) {
	engine := sim.NewEngine(t0)
	f, err := New(Config{
		Devices: 1,
		Areas:   []Area{{App: "test", Subscription: "s", Topic: "/T/0", User: 1}},
		POPs:    []string{"pop-0", "pop-1"},
		Dialer:  failPopDialer{fail: map[string]bool{"pop-0": true}},
		Sched:   engine,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.ConnectAt(0, t0)
	engine.Run()
	if f.State(0) != StateConnected {
		t.Fatalf("state = %d, want Connected via pop-1", f.State(0))
	}
	if f.DialFailures.Value() < 1 {
		t.Fatal("expected at least one dial failure on pop-0")
	}
	if engine.Now().Sub(t0) < 25*time.Millisecond {
		t.Fatalf("retry did not back off: connected at +%v", engine.Now().Sub(t0))
	}
}

func TestBackoffDelayJitteredBoundedDeterministic(t *testing.T) {
	f, _ := virtualFleet(t, 4, 1)
	base := float64(f.policy.Base)
	for attempt := uint8(0); attempt < 12; attempt++ {
		raw := base
		for i := uint8(0); i < attempt; i++ {
			raw *= 2
			if raw > float64(f.policy.Max) {
				raw = float64(f.policy.Max)
				break
			}
		}
		if raw > float64(f.policy.Max) {
			raw = float64(f.policy.Max)
		}
		for dev := uint32(0); dev < 4; dev++ {
			d := f.backoffDelay(dev, attempt)
			if float64(d) < raw*0.49 || float64(d) > raw*1.51 {
				t.Fatalf("delay(%d,%d) = %v outside jitter bounds of %v", dev, attempt, time.Duration(d), time.Duration(raw))
			}
			if d2 := f.backoffDelay(dev, attempt); d2 != d {
				t.Fatalf("delay(%d,%d) not deterministic: %d vs %d", dev, attempt, d, d2)
			}
		}
	}
	// Distinct devices must not retry in lockstep.
	if f.backoffDelay(0, 3) == f.backoffDelay(1, 3) && f.backoffDelay(0, 4) == f.backoffDelay(1, 4) {
		t.Fatal("jitter identical across devices")
	}
}

// applySeq applies one payload delta of ts's current incarnation.
func applySeq(f *Fleet, ts *topicSub, seq uint64) {
	d := burst.PayloadDelta(seq, nil)
	f.apply(ts, ts.sid, &d)
}

// The fleet's redial delay is faults' one formula fed the device's attempt and
// a hash — the same duration faults.Backoff hands device.Device for the same
// (attempt, u) (TestBackoffNextIsDelay there pins Backoff.Next to Delay).
// Where the policy has no jitter u is moot, and the two models' schedules are
// compared directly.
func TestBackoffDelayIsTheOneFormula(t *testing.T) {
	policies := []faults.BackoffPolicy{
		{}, // all defaults
		{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, NoJitter: true},
		{Base: 100 * time.Millisecond, Max: 10 * time.Millisecond, NoJitter: true}, // Max < Base: clamped up to Base
		{Base: 100 * time.Millisecond, Max: 10 * time.Millisecond},
		{Base: 20 * time.Millisecond, Multiplier: 1, Jitter: 1},
	}
	for _, p := range policies {
		f, err := New(Config{Devices: 4, Areas: []Area{{Topic: "/T/0"}}, POPs: []string{"pop"}, Sched: sim.NewEngine(t0), Backoff: p, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for dev := uint32(0); dev < 4; dev++ {
			b := faults.NewBackoff(p, int64(dev)+1)
			for attempt := 0; attempt <= 40; attempt++ {
				got := time.Duration(f.backoffDelay(dev, uint8(attempt)))
				u := unitFrac(splitmix64(f.seedBase ^ uint64(dev)<<8 ^ uint64(attempt)))
				if want := p.Normalized().Delay(attempt, u); got != want || u < 0 || u >= 1 {
					t.Fatalf("%v dev %d attempt %d: backoffDelay = %v, Delay(u=%v) = %v", p, dev, attempt, got, u, want)
				}
				if next := b.Next(); p.NoJitter && got != next {
					t.Fatalf("%v attempt %d: the fleet waits %v, device.Device's Backoff %v", p, attempt, got, next)
				}
			}
		}
		f.Close()
	}
}

func TestApplyPayloadSeqProbeAndCounters(t *testing.T) {
	f, engine := virtualFleet(t, 8, 2)
	f.ConnectAll(0)
	engine.Run()
	f.mu.Lock()
	tr := f.trunkIDs[0]
	f.mu.Unlock()
	ts := tr.lookupSub(0)
	if ts == nil {
		t.Fatal("no shared subscription for area 0")
	}
	attached := len(ts.streams)
	if attached != 4 {
		t.Fatalf("area 0 attached = %d, want 4 (round-robin of 8 devices)", attached)
	}

	applySeq(f, ts, 7)
	if got := f.Applied.Value(); got != int64(attached) {
		t.Fatalf("Applied = %d, want %d", got, attached)
	}
	for _, sid := range ts.streams {
		if f.LastSeq(sid) != 7 {
			t.Fatalf("stream %d LastSeq = %d, want 7", sid, f.LastSeq(sid))
		}
	}
	// Stale seq must not regress LastSeq.
	applySeq(f, ts, 5)
	if f.LastSeq(ts.streams[0]) != 7 {
		t.Fatal("stale seq regressed LastSeq")
	}

	// An armed probe is claimed exactly once by the next applied delta.
	f.ProbeArm(0, 123)
	applySeq(f, ts, 8)
	if f.ProbeArmed(0) {
		t.Fatal("probe not claimed")
	}
	if f.ApplyLatency.Count() != 1 {
		t.Fatalf("latency samples = %d, want 1", f.ApplyLatency.Count())
	}
	applySeq(f, ts, 9)
	if f.ApplyLatency.Count() != 1 {
		t.Fatal("unarmed apply recorded a latency sample")
	}

	// A delta on an EMPTY subscription must not claim a probe: nothing
	// was delivered to any device.
	empty := &topicSub{trunk: tr, area: 1}
	f.ProbeArm(1, 456)
	applySeq(f, empty, 10)
	if !f.ProbeArmed(1) {
		t.Fatal("empty apply claimed the probe")
	}
	if !f.ProbeDisarm(1) {
		t.Fatal("disarm found nothing")
	}
}

// A termination is executed, not just counted: the shared stream leaves its
// trunk, the virtual streams attached to it end for good — their devices stay
// connected and do not re-attach them on a later dial — and a device that
// comes to the area afterwards opens a fresh stream.
func TestTerminationEndsSharedStream(t *testing.T) {
	f, engine := virtualFleet(t, 4, 1)
	for dev := uint32(0); dev < 3; dev++ {
		f.ConnectAt(dev, t0)
	}
	engine.Run()
	f.mu.Lock()
	tr := f.trunkIDs[0]
	f.mu.Unlock()
	ts := tr.lookupSub(0)
	applySeq(f, ts, 1)
	end := burst.TerminationDelta("done")
	f.apply(ts, ts.sid, &end)
	applySeq(f, ts, 2) // after End nothing moves
	f.Service()
	if tr.lookupSub(0) != nil || f.Terminations.Value() != 1 {
		t.Fatalf("the ended stream is still subscribed (Terminations=%d)", f.Terminations.Value())
	}
	if f.ConnectedCount() != 3 || f.LastSeq(0) != 1 {
		t.Fatalf("connected=%d LastSeq=%d, want 3 devices still connected at seq 1", f.ConnectedCount(), f.LastSeq(0))
	}
	// Device 0 drops and redials: its stream stays ended. Device 3 arrives
	// for the first time: it gets a fresh shared stream of its own.
	f.DropAt(0, engine.Now())
	f.ConnectAt(3, engine.Now())
	engine.Run()
	fresh := tr.lookupSub(0) // device 3 starts on pop-0; device 0 rotated away
	if f.State(0) != StateConnected || fresh == nil || fresh == ts || len(fresh.streams) != 1 || fresh.streams[0] != 3 {
		t.Fatalf("after the termination the area's stream is %+v, want a fresh one holding stream 3 alone", fresh)
	}
	f.mu.Lock()
	idx := append([]uint32(nil), f.tab.subIdx...)
	f.mu.Unlock()
	if idx[0] != endedIndex || idx[1] != endedIndex || idx[2] != endedIndex || idx[3] != 0 {
		t.Fatalf("subIdx = %v, want three ended streams and stream 3 attached", idx)
	}
}

func TestTrunkDeathRedialsAttachedDevices(t *testing.T) {
	net := edge.NewPipeNetwork()
	for _, pop := range []string{"pop-0", "pop-1"} {
		net.Register(pop, func(rwc io.ReadWriteCloser) {
			go func() { _, _ = io.Copy(io.Discard, rwc) }()
		})
	}
	engine := sim.NewEngine(t0)
	f, err := New(Config{
		Devices: 100,
		Areas:   []Area{{App: "test", Subscription: "s", Topic: "/T/0", User: 1}},
		POPs:    []string{"pop-0", "pop-1"},
		Dialer:  net,
		Sched:   engine,
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.ConnectAll(0)
	engine.Run()
	if f.ConnectedCount() != 100 {
		t.Fatalf("connected = %d, want 100", f.ConnectedCount())
	}

	net.SetDown(true, "pop-0")
	deadline := time.Now().Add(10 * time.Second)
	for {
		f.Service()
		engine.RunUntil(engine.Now().Add(10 * time.Second))
		if f.TrunkDeaths.Value() >= 1 && f.ConnectedCount() == 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not recover: deaths=%d connected=%d",
				f.TrunkDeaths.Value(), f.ConnectedCount())
		}
		time.Sleep(time.Millisecond)
	}
	f.mu.Lock()
	pop := f.trunks["pop-1"]
	f.mu.Unlock()
	if pop == nil {
		t.Fatal("no trunk on the healthy POP after failover")
	}
	if f.Connects.Value() != 200 {
		t.Fatalf("Connects = %d, want 200 (everyone re-dialed once)", f.Connects.Value())
	}
}

func TestFootprintStaysUnderBudget(t *testing.T) {
	devices := 100_000
	if testing.Short() {
		devices = 20_000
	}
	f, engine := virtualFleet(t, devices, 200)
	f.ConnectAll(time.Minute)
	engine.Run()
	// Churn a slice of the fleet so the heap and membership slices have
	// seen real traffic, then measure.
	for dev := 0; dev < devices/10; dev++ {
		f.DropAt(uint32(dev), engine.Now().Add(time.Duration(dev%60)*time.Second))
	}
	engine.Run()
	bpd := f.BytesPerDevice()
	if bpd > 40 {
		t.Fatalf("bytes/device = %.1f, want <= 40", bpd)
	}
	t.Logf("bytes/device = %.1f (footprint %d for %d devices)", bpd, f.Footprint(), devices)
}
