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

// TestChaosDurlogCursorResume storms one mailbox stream over its delivery
// budget with the durable log on, cuts the device's POP mid-storm, and
// asserts the view converges gap-free through reopens the hosts answer from
// their logs.
func TestChaosDurlogCursorResume(t *testing.T) {
	seed := chaosSeed(t)
	goroutinesBefore := runtime.NumGoroutine()

	cfg := core.DefaultConfig()
	cfg.Graph.Users = 100
	cfg.Graph.BlockProb = 0
	// Same aggressive overload posture as the log-less chaos run, so the
	// two tests shed comparably — only the catch-up source differs.
	cfg.Overload = core.OverloadConfig{
		LoopQueueDepth:     16,
		StreamDeliverRate:  25,
		StreamDeliverBurst: 4,
	}
	cfg.Durlog = &core.DurlogConfig{} // defaults: Messenger on
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

	// The storm: far over the 25/s stream budget, so most of it sheds and
	// lands only in the host's log.
	const storm = 150
	for i := 0; i < storm; i++ {
		sent += send(fmt.Sprintf("storm-%d", i))
	}

	// Seeded connection chaos on top of the shedding: cut every POP, let
	// the device notice, heal, and require the resubscribe to carry the
	// stored cursor through reconnect.
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
	// while the reopens replay everything the storm dropped from the log.
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

	// The catch-up source must have been the log, not the backend. The POP
	// cut can beat the first shed marker, and the reconnect's resubscribe
	// then repairs everything: require a resubscribe, not a marker resume.
	if viewer.Resubscribes.Value() == 0 {
		t.Error("gap closed without any resubscribe — the recovery path never engaged")
	}
	var appends, resumes, catchUp, expired int64
	for _, h := range c.Hosts {
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

	// Teardown and leak check.
	viewer.Close()
	author.Close()
	w.done.Wait()
	c.Close()
	waitFor(t, "goroutines drained", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutinesBefore+3
	})
	t.Logf("seed %d: sent=%d sheds=%d resubscribes=%d resumes=%d appends=%d logResumes=%d catchUp=%d",
		seed, sent, sheds, viewer.Resubscribes.Value(), viewer.Resumes.Value(), appends, resumes, catchUp)
}
