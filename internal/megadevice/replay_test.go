package megadevice

import (
	"testing"
	"time"
)

// TestReplayScenarioServesBacklogFromLog runs the replay scenario at toy
// scale and asserts its durable-log contract: late joiners subscribing
// from the "earliest" cursor receive the full backlog out of the BRASS
// log — every open a log resume, none expired into a mailbox read — and the
// log counters account for it.
func TestReplayScenarioServesBacklogFromLog(t *testing.T) {
	if testing.Short() {
		t.Skip("replay scenario drives a live cluster")
	}
	rep, err := Run(Options{
		Scenario: ScenarioReplay,
		Devices:  200,
		Areas:    8,
		Seed:     1,
		Short:    true,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.ReplayBacklog == 0 {
		t.Fatal("no backlog published")
	}
	// Every area must have been replayed at least once from the log (3
	// backlog messages per area in Short mode, one catch-up batch per
	// joiner trunk-stream).
	if rep.LogCatchUpDeltas < 3*8 {
		t.Errorf("LogCatchUpDeltas = %d, want >= %d", rep.LogCatchUpDeltas, 3*8)
	}
	if rep.ReplayCatchUpApplied == 0 {
		t.Error("ReplayCatchUpApplied = 0: no backlog reached a late joiner")
	}
	// At least one cursor resume per area was served from the log.
	if rep.LogResumes < 8 {
		t.Errorf("LogResumes = %d, want >= 8", rep.LogResumes)
	}
	// At least the guaranteed-delivered floor (probe-confirmed first
	// message plus the rest of each area's backlog) was logged.
	if rep.LogAppends < 3*8 {
		t.Errorf("LogAppends = %d, want >= %d", rep.LogAppends, 3*8)
	}
	if rep.LogExpired != 0 {
		t.Errorf("LogExpired = %d, want 0", rep.LogExpired)
	}
}

// TestStormScenarioReattachesAfterTheCut runs the storm scenario at toy
// scale: half the POPs are cut a third of the way in and healed at two
// thirds. Each cut POP's trunk dies once — pop-0 is every device's home and
// pop-1 its first rotation after a drop, so both hold a trunk by the cut —
// the connected count dips, and the redials bring it back to the
// scenario's own reattach line, 99.5 % of the online target, before the
// heal. Connect counts vary run to run, so only these shapes are asserted.
func TestStormScenarioReattachesAfterTheCut(t *testing.T) {
	if testing.Short() {
		t.Skip("storm scenario drives a live cluster")
	}
	const devices = 20_000
	rep, err := Run(Options{Scenario: ScenarioStorm, Devices: devices, Seed: 1, Short: true, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TrunkDeaths != 2 {
		t.Errorf("TrunkDeaths = %d, want 2 (the trunks of pop-0 and pop-1)", rep.TrunkDeaths)
	}
	// The series starts two minutes before the cut (minute 20 of 60).
	const cut, heal = 20, 40
	target := func(i int) int {
		return int(devices * steadyOnline.At(t0.Add(time.Duration(cut-2+i)*time.Minute)))
	}
	series := rep.ConnectedSeries
	if len(series) < 4 {
		t.Fatalf("ConnectedSeries = %v, too short", series)
	}
	if series[2]*2 > series[1] {
		t.Errorf("connected %d at the cut, %d the minute before: no dip", series[2], series[1])
	}
	if last := len(series) - 1; series[last]*1000 < target(last)*995 {
		t.Errorf("connected %d at the end, want >= 99.5%% of %d", series[last], target(last))
	}
	if rep.ReattachMinutes <= 0 || rep.ReattachMinutes > heal-cut {
		t.Errorf("ReattachMinutes = %v, want in (0, %d]", rep.ReattachMinutes, heal-cut)
	}
}

// TestCelebrityScenarioFansTheBurstOut runs the celebrity scenario at toy
// scale: the burst into the hottest area reaches at least 95 % of burst ×
// that area's devices as per-device applies.
func TestCelebrityScenarioFansTheBurstOut(t *testing.T) {
	if testing.Short() {
		t.Skip("celebrity scenario drives a live cluster")
	}
	rep, err := Run(Options{Scenario: ScenarioCelebrity, Devices: 20_000, Seed: 1, Short: true, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.HotTopicSubs <= 0 {
		t.Fatalf("HotTopicSubs = %d", rep.HotTopicSubs)
	}
	if want := int64(shortBurstPubs) * int64(rep.HotTopicSubs) * 95 / 100; rep.HotTopicApplied < want {
		t.Errorf("the burst applied %d times, want >= %d (95%% of %d × %d)",
			rep.HotTopicApplied, want, shortBurstPubs, rep.HotTopicSubs)
	}
}
