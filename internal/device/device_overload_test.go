package device

import (
	"testing"

	"bladerunner/internal/burst"
)

// Regression for the slow-device control-delta bug: the apply path used to
// best-effort-drop WHOLE batches when a stream's buffer was full — control
// deltas included — so a device that stalled while degraded could lose the
// FlowRecovered notice and show "degraded" forever. Now only payload
// deltas shed (a burst client stream strips payload and keeps control; the device Flow
// channel coalesces stale codes). The app must always observe the latest
// flow state.
func TestSlowDeviceNeverLosesFlowRecovered(t *testing.T) {
	env := newDevEnv(t)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := env.dev.Subscribe("app", "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pop stream", func() bool { return env.popA.stream(0) != nil })
	srv := env.popA.stream(0)

	// The device never reads Updates or Flow while the server floods it:
	// stale FlowDegraded notices overfill the Flow buffer (cap 16) and
	// payload deltas overfill both the burst event buffer (256 batches)
	// and the Updates channel (256).
	const degraded, payloads = 40, 800
	for i := 0; i < degraded; i++ {
		if err := srv.SendBatch(burst.FlowStatusDelta(burst.FlowDegraded, "upstream pressure")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < payloads; i++ {
		if err := srv.SendBatch(burst.PayloadDelta(uint64(i+1), []byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.SendBatch(burst.FlowStatusDelta(burst.FlowRecovered, "pressure gone")); err != nil {
		t.Fatal(err)
	}
	// Every flow delta must reach the pump (none may die in the transport):
	waitFor(t, "all flow events pumped", func() bool {
		return env.dev.FlowEvents.Value() == degraded+1
	})

	// The slow app finally drains Flow: whatever was coalesced away, the
	// LAST code it observes must be FlowRecovered. (waitFor covers the
	// pump finishing its final pushFlow after the counter tick.)
	var last burst.FlowCode // 0 = none seen (codes start at FlowDegraded=1)
	waitFor(t, "FlowRecovered to surface", func() bool {
		for {
			select {
			case code := <-st.Flow:
				last = code
				continue
			default:
			}
			break
		}
		return last == burst.FlowRecovered
	})
	if env.dev.FlowCoalesced.Value() == 0 {
		t.Error("expected stale flow codes to be coalesced under pressure")
	}
	// The recovered notice was the last batch, so every payload before it has
	// met its fate: shed by the burst client's 256-batch buffer (one payload
	// per batch here), shed by the full Updates channel, or waiting in it.
	// Which buffer overflows first is the scheduler's choice — a pump that
	// keeps up sheds at Updates, one that falls behind lets the client evict —
	// so the books must balance, not one particular counter be non-zero.
	env.dev.mu.Lock()
	evicted := env.dev.client.Dropped.Value()
	env.dev.mu.Unlock()
	rendered, queued := env.dev.RenderDrops.Value(), int64(len(st.Updates))
	if evicted+rendered+queued != payloads || evicted+rendered == 0 {
		t.Errorf("%d payloads sent: %d evicted by the client + %d render drops + %d queued in Updates = %d",
			payloads, evicted, rendered, queued, evicted+rendered+queued)
	}
}
