package device

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/overload"
	"bladerunner/internal/was"
)

// Regression for the slow-device control-delta bug: the apply path used to
// best-effort-drop WHOLE batches when a stream's buffer was full — control
// deltas included — so a device that stalled while degraded could lose the
// FlowRecovered notice and show "degraded" forever. Now only payload
// deltas shed (burst client evicts + salvages control; the device Flow
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

// A shed-marker FlowDegraded means deltas were dropped upstream and the
// gap cannot be trusted: the device must re-fetch authoritative state via
// a cheap WAS point query (shed-then-resync) instead of waiting for pushes
// that will never come.
func TestShedMarkerTriggersResync(t *testing.T) {
	env := newDevEnv(t)
	w := env.was
	w.RegisterQuery("snapshot", func(ctx *was.Ctx, call was.FieldCall) (any, error) {
		return "state-after-" + call.Args["since"], nil
	})
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := env.dev.Subscribe("app", "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	st.SetResync(
		func(lastSeq uint64) string { return fmt.Sprintf("snapshot(since: %d)", lastSeq) },
		func(b []byte) {
			mu.Lock()
			got = append(got, string(b))
			mu.Unlock()
		},
	)
	waitFor(t, "pop stream", func() bool { return env.popA.stream(0) != nil })
	srv := env.popA.stream(0)

	if err := srv.SendBatch(burst.PayloadDelta(9, []byte("p"))); err != nil {
		t.Fatal(err)
	}
	// Non-shed degraded notice (e.g. plain connectivity blip): NO resync.
	if err := srv.SendBatch(burst.FlowStatusDelta(burst.FlowDegraded, "blip")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "flow event", func() bool { return env.dev.FlowEvents.Value() == 1 })
	if env.dev.Resyncs.Value() != 0 {
		t.Fatalf("resync on non-shed degraded notice")
	}

	// Shed-marked degraded notice: resync fires with the last applied seq.
	if err := srv.SendBatch(burst.FlowStatusDelta(
		burst.FlowDegraded, overload.ShedMarkerPrefix+"brass-loop")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "resync", func() bool { return env.dev.Resyncs.Value() == 1 })
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != `"state-after-9"` {
		t.Fatalf("resync results = %q", got)
	}
	if w.PointQueries.Value() != 1 {
		t.Errorf("PointQueries = %d, want 1", w.PointQueries.Value())
	}
	if w.Queries.Value() != 0 {
		t.Errorf("resync used a range query (Queries = %d)", w.Queries.Value())
	}
}

// Concurrent shed notices coalesce: triggers arriving while a resync is
// in flight collapse into exactly ONE trailing re-run (their deltas were
// shed after the in-flight snapshot, so skipping them could leave a
// permanent gap). A fresh notice after everything settles starts anew.
func TestResyncCoalescesInFlight(t *testing.T) {
	env := newDevEnv(t)
	w := env.was
	block := make(chan struct{})
	w.RegisterQuery("snap", func(ctx *was.Ctx, call was.FieldCall) (any, error) {
		<-block
		return "ok", nil
	})
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := env.dev.Subscribe("app", "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	st.SetResync(func(uint64) string { return "snap" }, nil)
	waitFor(t, "pop stream", func() bool { return env.popA.stream(0) != nil })
	srv := env.popA.stream(0)

	for i := 0; i < 5; i++ {
		if err := srv.SendBatch(burst.FlowStatusDelta(
			burst.FlowDegraded, overload.ShedMarkerPrefix+"storm")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "flow events", func() bool { return env.dev.FlowEvents.Value() == 5 })
	close(block) // release the in-flight query; the trailing re-run follows
	waitFor(t, "in-flight + one trailing resync", func() bool {
		return env.dev.Resyncs.Value() == 2
	})
	time.Sleep(10 * time.Millisecond)
	if n := env.dev.Resyncs.Value(); n != 2 {
		t.Fatalf("Resyncs = %d, want 2 (4 in-flight triggers must collapse to one re-run)", n)
	}

	if err := srv.SendBatch(burst.FlowStatusDelta(
		burst.FlowDegraded, overload.ShedMarkerPrefix+"again")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fresh resync after settle", func() bool { return env.dev.Resyncs.Value() == 3 })
}
