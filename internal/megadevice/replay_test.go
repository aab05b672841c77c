package megadevice

import (
	"testing"
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
