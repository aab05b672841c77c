// Chaos × tracing: the failure paths this package injects must not break
// the tracing plane's span trees. A device that loses its POP reconnects
// with a *rewritten* subscribe request; the rewrite must preserve the
// stable "trace-stream" identity, so the post-recovery device.apply spans
// stitch to the same logical stream as the pre-fault ones. And a seeded
// fault window must never leave dangling children — a span whose parent
// hop is missing from its assembled trace would mean the context was
// dropped somewhere across the cut.
//
// These tests run in CI's chaos matrix (they match -run TestChaos), so the
// matrix now exercises every failure schedule with tracing on.
package faults_test

import (
	"fmt"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/faults"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/trace"
)

// tracedChaosCluster boots the wired stack with the tracing plane sampling
// every mutation and a FaultNetwork in front of the POPs.
func tracedChaosCluster(t *testing.T, seed int64) (*core.Cluster, *faults.FaultNetwork, *trace.Plane) {
	t.Helper()
	plane := trace.NewPlane(trace.Config{Rate: 1, Seed: seed})
	cfg := core.DefaultConfig()
	cfg.Graph.Users = 100
	cfg.Graph.BlockProb = 0
	cfg.Graph.Seed = seed
	cfg.Trace = plane
	c := core.MustNewCluster(cfg, nil)
	return c, faults.NewFaultNetwork(c.Net, nil), plane
}

// applySpans returns every device.apply span in the gathered plane, keyed
// by the mailbox sequence number it applied.
func applySpans(spans []trace.SpanData) map[string]trace.SpanData {
	out := make(map[string]trace.SpanData)
	for _, s := range spans {
		if s.Hop == trace.HopApply {
			out[s.Attr("seq")] = s
		}
	}
	return out
}

// TestChaosTraceStreamIdentitySurvivesReconnect cuts every POP under a
// traced messenger viewer, waits for the reconnect + rewritten resubscribe,
// and asserts the post-recovery delivery's spans carry the exact same
// stream identity as the pre-fault baseline: the rewrite preserved the
// "trace-stream" header, so both device.apply spans — and the burst.flush
// spans above them — name one logical stream across the fault.
func TestChaosTraceStreamIdentitySurvivesReconnect(t *testing.T) {
	seed := chaosSeed(t)
	c, fn, plane := tracedChaosCluster(t, seed)
	defer c.Close()

	const authorUID, viewerUID = socialgraph.UserID(90), socialgraph.UserID(10)
	author := c.NewDevice(authorUID)
	defer author.Close()
	viewer := c.NewDeviceVia(fn, device.Config{
		User:        viewerUID,
		Backoff:     faults.BackoffPolicy{Base: 10 * time.Millisecond, Max: 160 * time.Millisecond},
		BackoffSeed: seed + 1,
	})
	defer viewer.Close()
	if err := viewer.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := viewer.Subscribe(apps.AppMessenger, "messenger", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := watch(st)
	streamID := st.Request().Header[burst.HdrTraceStream]
	if streamID == "" {
		t.Fatal("subscribe request carries no trace-stream header")
	}

	tid := newThread(t, author, authorUID, viewerUID)
	waitFor(t, "mailbox subscription", func() bool {
		return len(c.Pylon.Subscribers(apps.MailboxTopic(viewerUID))) >= 1
	})

	send := func(label string) {
		t.Helper()
		if _, err := author.Mutate(fmt.Sprintf(
			`sendMessage(threadID: %d, text: "%s")`, tid, label)); err != nil {
			t.Fatal(err)
		}
	}

	// Baseline traced delivery before any fault.
	send("pre-fault")
	waitFor(t, "baseline delivery", func() bool { return w.hasAll(1) })

	// Mass cut: the viewer's session dies, reconnects through another POP,
	// and resubscribes with a rewritten request.
	pops := c.POPTargets()
	for _, pop := range pops {
		fn.Cut(pop)
	}
	time.Sleep(50 * time.Millisecond)
	for _, pop := range pops {
		fn.Heal(pop)
	}
	// Wait on the counter itself: the new session is up and the OLD
	// subscription can still be in Pylon a moment before resubscribe() has
	// run and counted.
	waitFor(t, "viewer reconnected and resubscribed", func() bool {
		return viewer.Resubscribes.Value() >= 1 && len(c.Pylon.Subscribers(apps.MailboxTopic(viewerUID))) >= 1
	})
	if got := st.Request().Header[burst.HdrTraceStream]; got != streamID {
		t.Fatalf("rewritten request changed trace-stream: %q -> %q", streamID, got)
	}

	// Post-recovery traced delivery over the resumed stream.
	send("post-recovery")
	waitFor(t, "post-recovery delivery", func() bool { return w.hasAll(2) })
	c.Quiesce()

	spans := plane.Gather()
	applies := applySpans(spans)
	pre, ok := applies["1"]
	if !ok {
		t.Fatalf("no device.apply span for the pre-fault message; applies=%v", applies)
	}
	post, ok := applies["2"]
	if !ok {
		t.Fatalf("no device.apply span for the post-recovery message; applies=%v", applies)
	}
	if pre.Attr("stream") != streamID || post.Attr("stream") != streamID {
		t.Fatalf("apply spans name streams %q / %q, want both %q",
			pre.Attr("stream"), post.Attr("stream"), streamID)
	}

	// Both deliveries must assemble into complete publish→…→apply traces.
	for _, tr := range trace.Assemble(spans) {
		has := false
		for _, s := range tr.Spans {
			if s.Hop == trace.HopApply {
				has = true
			}
		}
		if has && !tr.Covers(trace.EdgePathHops...) {
			t.Errorf("trace %x reached the device but is missing hops:\n%s", tr.ID, tr.Tree())
		}
	}
	viewer.Close()
	author.Close()
	w.done.Wait()
}

// TestChaosTraceSeededWindowLeavesNoDanglingSpans runs a seeded cut/heal
// plan while traced traffic flows and asserts the gathered spans are
// gap-free: a fault may truncate a trace (publish with no downstream
// delivery), but it must never orphan one — every span whose hop has a
// parent in the pipeline must find that parent in its own trace, and the
// catch-up after recovery must close every sequence gap on the device.
func TestChaosTraceSeededWindowLeavesNoDanglingSpans(t *testing.T) {
	seed := chaosSeed(t)
	c, fn, plane := tracedChaosCluster(t, seed)
	defer c.Close()

	const authorUID, viewerUID = socialgraph.UserID(91), socialgraph.UserID(11)
	author := c.NewDevice(authorUID)
	defer author.Close()
	viewer := c.NewDeviceVia(fn, device.Config{
		User:        viewerUID,
		Backoff:     faults.BackoffPolicy{Base: 10 * time.Millisecond, Max: 160 * time.Millisecond},
		BackoffSeed: seed + 2,
	})
	defer viewer.Close()
	if err := viewer.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := viewer.Subscribe(apps.AppMessenger, "messenger", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := watch(st)
	tid := newThread(t, author, authorUID, viewerUID)
	waitFor(t, "mailbox subscription", func() bool {
		return len(c.Pylon.Subscribers(apps.MailboxTopic(viewerUID))) >= 1
	})

	var sent uint64
	send := func(label string) {
		t.Helper()
		if _, err := author.Mutate(fmt.Sprintf(
			`sendMessage(threadID: %d, text: "%s")`, tid, label)); err != nil {
			t.Fatal(err)
		}
		sent++
	}

	send("pre-window")
	waitFor(t, "baseline delivery", func() bool { return w.hasAll(sent) })

	// Seeded fault window with a mid-window send that may race the cuts.
	plan := faults.RandomPlan(seed, c.POPTargets(), time.Second, 2)
	t.Logf("chaos schedule (seed %d):\n%s", seed, plan.Schedule())
	done := plan.Start(fn)
	defer done()
	time.Sleep(plan.Horizon() / 2)
	send("mid-window")
	time.Sleep(plan.Horizon()/2 + 100*time.Millisecond)

	// The stream is still open and registered; the gap-free wait below
	// needs the viewer's session back up.
	waitFor(t, "viewer settled after the window", func() bool {
		return !w.isEnded() && len(c.Pylon.Subscribers(apps.MailboxTopic(viewerUID))) >= 1
	})
	send("post-window")
	// Catch-up must close any gap the window opened: all sequences 1..sent.
	waitFor(t, "gap-free mailbox after recovery", func() bool { return w.hasAll(sent) })
	c.Quiesce()

	if ev := plane.Evicted(); ev != 0 {
		t.Fatalf("collector evicted %d spans; the run must fit the rings for the gap check to be sound", ev)
	}
	traces := trace.Assemble(plane.Gather())
	if len(traces) == 0 {
		t.Fatal("no traces gathered")
	}
	complete := 0
	for _, tr := range traces {
		hops := make(map[string]bool, len(tr.Spans))
		for _, s := range tr.Spans {
			hops[s.Hop] = true
		}
		for _, s := range tr.Spans {
			if s.Parent != "" && !hops[s.Parent] {
				t.Errorf("trace %x: span %s is dangling — parent hop %s missing (hops %v)",
					tr.ID, s.Hop, s.Parent, hops)
			}
		}
		if tr.Covers(trace.EdgePathHops...) {
			complete++
		}
	}
	if complete == 0 {
		t.Errorf("no complete edge-path trace among %d traces", len(traces))
	}
	viewer.Close()
	author.Close()
	w.done.Wait()
}

// TestTraceReachesTheDeviceForEveryEventDrivenApp: a payload delta carries
// the trace of the event that caused it whichever application pushed it
// (brass.Stream.Fetch makes the payload and carries ev.Trace), so a sampled typing indicator or
// notification closes burst.flush, edge.relay and device.apply like a
// sampled message does — not a trace that ends at brass.fetch.
func TestTraceReachesTheDeviceForEveryEventDrivenApp(t *testing.T) {
	for _, tc := range []struct {
		app, sub string
		topic    pylon.Topic
		mutation string
	}{
		{apps.AppTyping, "typingIndicator(threadID: 5, peer: 92)", apps.TypingTopic(5, 92),
			`setTyping(threadID: 5, on: "true")`},
		{apps.AppNotifications, "websiteNotifications", apps.NotifTopic(12),
			`notify(user: 12, kind: "mention", text: "hi")`},
	} {
		t.Run(tc.app, func(t *testing.T) {
			c, _, plane := tracedChaosCluster(t, chaosSeed(t))
			defer c.Close()
			actor, viewer := c.NewDevice(92), c.NewDevice(12)
			defer actor.Close()
			defer viewer.Close()
			if err := viewer.Connect(); err != nil {
				t.Fatal(err)
			}
			st, err := viewer.Subscribe(tc.app, tc.sub, nil)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "subscription", func() bool { return len(c.Pylon.Subscribers(tc.topic)) >= 1 })
			if _, err := actor.Mutate(tc.mutation); err != nil {
				t.Fatal(err)
			}
			if _, ok := payload(t, st, 15*time.Second); !ok {
				t.Fatal("no delivery")
			}
			// The update reaches the application before the proxies on its
			// way have closed their relay spans: poll, do not sample once.
			var tree string
			covered := func() bool {
				for _, tr := range trace.Assemble(plane.Gather()) {
					if tr.Covers(trace.HopPublish, trace.HopFetch) {
						tree = tr.Tree()
						return tr.Covers(trace.HopFlush, trace.HopRelay, trace.HopApply)
					}
				}
				return false
			}
			for deadline := time.Now().Add(5 * time.Second); !covered(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the sampled trace covers only\n%s\nwant burst.flush, edge.relay and device.apply too", tree)
				}
			}
		})
	}
}
