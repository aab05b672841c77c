// Chaos run for the overload-control plane: the full wired stack with
// bounded BRASS loop queues and per-stream delivery admission enabled, hit
// with a message storm that forces real shedding, a seeded mid-storm POP
// cut, and subscriber churn on the hot mailbox topic. The invariants:
//
//   - Gap-free resume: every shed payload is recovered by the device
//     reopening the stream from its frozen resume point and the serving
//     BRASS replaying the mailbox suffix — the final view holds sequence
//     1..K with no holes, even though most of the storm was dropped in
//     flight.
//   - Flow state converges: the stream's last flow code is FlowRecovered.
//   - Subscriber-cache invalidation holds while shedding: a host
//     unsubscribed mid-storm goes silent once in-flight rounds drain.
//   - Nothing leaks: goroutine count returns to baseline.
package faults_test

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/faults"
	"bladerunner/internal/socialgraph"
)

// TestChaosOverloadGapFreeResync storms one mailbox stream hard enough to
// shed, cuts the device's POP mid-storm, and asserts the device's view is
// eventually gap-free purely through stream reopens (shed markers and the
// reconnect alike) and the BRASS catch-up that answers them.
func TestChaosOverloadGapFreeResync(t *testing.T) {
	seed := chaosSeed(t)
	goroutinesBefore := runtime.NumGoroutine()

	cfg := core.DefaultConfig()
	cfg.Graph.Users = 100
	cfg.Graph.BlockProb = 0
	// Aggressive overload posture: tiny loop queues and a per-stream
	// delivery budget far below the storm rate, so shedding is guaranteed.
	cfg.Overload = core.OverloadConfig{
		LoopQueueDepth:     16,
		StreamDeliverRate:  25,
		StreamDeliverBurst: 4,
	}
	c := core.MustNewCluster(cfg, nil)
	fn := faults.NewFaultNetwork(c.Net, nil, seed)
	pops := c.POPTargets()

	const (
		authorUID = socialgraph.UserID(90)
		viewerUID = socialgraph.UserID(10)
	)
	author := c.NewDevice(authorUID)
	viewer := c.NewDeviceVia(fn, device.Config{
		User:        viewerUID,
		Backoff:     faults.BackoffPolicy{Base: 10 * time.Millisecond, Max: 160 * time.Millisecond},
		BackoffSeed: seed + 1,
	})
	if err := viewer.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := viewer.Subscribe(apps.AppMessenger, "messenger", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := watch(st)

	var thread uint64
	out, err := author.Mutate(fmt.Sprintf(`createThread(members: "%d,%d")`, authorUID, viewerUID))
	if err != nil {
		t.Fatal(err)
	}
	_ = json.Unmarshal(out, &thread)
	topic := apps.MailboxTopic(viewerUID)
	waitFor(t, "mailbox subscription", func() bool {
		return len(c.Pylon.Subscribers(topic)) >= 1
	})

	send := func(text string) uint64 {
		t.Helper()
		msg := fmt.Sprintf(`sendMessage(threadID: %d, text: "%s")`, thread, text)
		if _, err := author.Mutate(msg); err != nil {
			t.Fatal(err)
		}
		return 1
	}

	var sent uint64
	sent += send("baseline")
	waitFor(t, "baseline delivery", func() bool { return w.hasAll(sent) })

	// Mid-storm churner: an extra host subscribes to the hot topic while
	// shedding is active, then unsubscribes — the version bump must
	// invalidate every cached member list even under overload.
	churn := &recHost{id: "churn-overload"}
	c.Pylon.RegisterHost(churn)

	// The storm: far over the 25/s stream budget, so most of it sheds.
	const storm = 150
	for i := 0; i < storm; i++ {
		sent += send(fmt.Sprintf("storm-%d", i))
		switch i {
		case storm / 3:
			if err := c.Pylon.Subscribe(topic, churn.id); err != nil {
				t.Fatalf("mid-storm subscribe: %v", err)
			}
		case 2 * storm / 3:
			if err := c.Pylon.Unsubscribe(topic, churn.id); err != nil {
				t.Fatalf("mid-storm unsubscribe: %v", err)
			}
		}
	}
	if churn.n.Load() == 0 {
		t.Error("churned host saw no deliveries while subscribed mid-storm")
	}
	c.Pylon.RemoveHost(churn.id)
	silentAt := churn.n.Load()

	// Seeded connection chaos on top of the shedding: cut every POP, let
	// the device notice, heal, and require a full resume.
	for _, pop := range pops {
		fn.Cut(pop)
	}
	time.Sleep(50 * time.Millisecond)
	for _, pop := range pops {
		fn.Heal(pop)
	}
	waitFor(t, "device reconnected", func() bool { return viewer.Connected() })
	waitFor(t, "stream resubscribed", func() bool { return viewer.Streams() == 1 })

	// Shedding must actually have happened for this run to mean anything.
	var sheds int64
	for _, h := range c.Hosts {
		sheds += h.StreamSheds.Value() + h.LoopOverflows.Value()
	}
	if sheds == 0 {
		t.Fatal("storm produced zero sheds; overload plane never engaged")
	}

	// Post-storm trickle until the view is gap-free: each message is under
	// the admission rate, so it lands and closes any open shed episode,
	// while the reopens backfill everything the storm dropped.
	// FlowRecovered is emitted lazily (on the next admitted payload after a
	// shed episode), so the trickle also drives flow-state convergence.
	settled := func() bool {
		recovered, last := w.snapshot()
		return w.hasAll(sent) && recovered > 0 && last == burst.FlowRecovered
	}
	deadline := time.Now().Add(20 * time.Second)
	for !settled() {
		if time.Now().After(deadline) {
			w.mu.Lock()
			missing := []uint64{}
			for s := uint64(1); s <= sent && len(missing) < 10; s++ {
				if !w.seqs[s] {
					missing = append(missing, s)
				}
			}
			w.mu.Unlock()
			recovered, last := w.snapshot()
			t.Fatalf("never settled (seed %d): %d sent, first missing seqs %v, resumes=%d, resubscribes=%d, recovered=%d, lastFlow=%v",
				seed, sent, missing, viewer.Resumes.Value(), viewer.Resubscribes.Value(), recovered, last)
		}
		sent += send("trickle")
		time.Sleep(50 * time.Millisecond)
	}
	if viewer.Resubscribes.Value() == 0 {
		t.Error("gap closed without any resubscribe — the recovery path never engaged")
	}

	// The removed churn host stays silent for post-removal publishes.
	sent += send("post-churn")
	waitFor(t, "post-churn delivery", func() bool { return w.hasAll(sent) })
	if got := churn.n.Load(); got != silentAt {
		t.Errorf("removed host delivered %d events after unsubscribe+remove", got-silentAt)
	}
	if c.Pylon.SubCacheStale.Value() == 0 {
		t.Error("subscriber churn never invalidated a cached member list")
	}

	// Teardown and leak check.
	viewer.Close()
	author.Close()
	w.done.Wait()
	c.Close()
	waitFor(t, "goroutines drained", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutinesBefore+3
	})
	t.Logf("seed %d: sent=%d sheds=%d resubscribes=%d resumes=%d coalesced=%d",
		seed, sent, sheds, viewer.Resubscribes.Value(), viewer.Resumes.Value(),
		viewer.ResumesCoalesced.Value())
}
