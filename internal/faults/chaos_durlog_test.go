// Chaos run for the durable per-topic log: the overload storm from
// chaos_overload_test.go rerun with the edge log enabled for Messenger.
// The device does exactly what it does there — it reopens the stream from
// its frozen resume point — and the invariants are about where the serving
// BRASS finds the missing suffix:
//
//   - Gap-free resume from the log: the hosts serve log resumes and log
//     catch-up deltas, and no cursor expires into a mailbox read — the
//     storm fits the retained window.
//   - The device repairs via cancel+resubscribe (Resubscribes > 0; whether
//     a shed marker or the POP cut fired first is the scheduler's choice).
//   - The cursor survives connection chaos: a seeded POP cut mid-storm
//     forces a reconnect, and the resubscribe's HdrCursor replays the
//     retained window instead of fabricating state.
//   - Nothing leaks: goroutine count returns to baseline.
package faults_test

import (
	"testing"

	"bladerunner/internal/core"
)

// TestChaosDurlogCursorResume storms one mailbox stream over its delivery
// budget with the durable log on, cuts the device's POP mid-storm, and
// asserts the view converges gap-free through reopens the hosts answer from
// their logs.
func TestChaosDurlogCursorResume(t *testing.T) {
	// The storm sheds as it does without the log: only the catch-up source
	// differs, and most of the storm lands only in the host's log.
	s := newMessengerStorm(t, &core.DurlogConfig{})
	s.storm(nil)
	s.cutPOPs() // the resubscribe must carry the stored cursor through reconnect
	s.settle()

	// The catch-up source must have been the log, not the backend.
	var appends, resumes, catchUp, expired int64
	for _, h := range s.c.Hosts {
		resumes += h.LogResumes.Value()
		catchUp += h.LogCatchUpDeltas.Value()
		expired += h.LogExpired.Value()
		if l := h.DurLog(); l != nil {
			appends += l.Appends.Value()
		}
	}
	if appends == 0 {
		t.Error("hosts journaled zero appends; the publish path never reached the log")
	}
	if resumes == 0 {
		t.Error("hosts served zero log resumes")
	}
	if catchUp == 0 {
		t.Error("hosts served zero catch-up deltas from the log")
	}
	if expired != 0 {
		t.Errorf("%d cursor resumes hit retention expiry; the storm must fit the retained window", expired)
	}

	s.close()
	t.Logf("seed %d: sent=%d sheds=%d resubscribes=%d resumes=%d appends=%d logResumes=%d catchUp=%d",
		s.seed, s.sent, s.sheds, s.viewer.Resubscribes.Value(), s.viewer.Resumes.Value(), appends, resumes, catchUp)
}
