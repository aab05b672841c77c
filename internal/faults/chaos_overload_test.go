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
	"fmt"
	"runtime"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/faults"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
)

// stormLen messages are far over the 25/s stream budget, so most of them shed.
const stormLen = 150

// messengerStorm is the scenario the storm tests share: a cluster with an
// aggressive overload posture — tiny loop queues and a per-stream delivery
// budget far below the storm rate, so shedding is guaranteed — one
// Messenger viewer behind a seeded fault network, its author, and the
// thread between them.
type messengerStorm struct {
	t                *testing.T
	seed             int64
	goroutinesBefore int
	c                *core.Cluster
	fn               *faults.FaultNetwork
	author, viewer   *device.Device
	w                *streamWatcher
	topic            pylon.Topic // the viewer's mailbox topic
	thread           uint64
	sent             uint64 // messages sent: the seqs 1..sent the view must hold
	sheds            int64
}

// newMessengerStorm builds the cluster with durlog as its durable log (nil:
// none), subscribes the viewer, and delivers one baseline message to it.
func newMessengerStorm(t *testing.T, durlog *core.DurlogConfig) *messengerStorm {
	s := &messengerStorm{t: t, seed: chaosSeed(t), goroutinesBefore: runtime.NumGoroutine()}
	cfg := core.DefaultConfig()
	cfg.Graph.Users = 100
	cfg.Graph.BlockProb = 0
	cfg.Overload = core.OverloadConfig{
		LoopQueueDepth:     16,
		StreamDeliverRate:  25,
		StreamDeliverBurst: 4,
	}
	cfg.Durlog = durlog
	s.c = core.MustNewCluster(cfg, nil)
	s.fn = faults.NewFaultNetwork(s.c.Net, nil)

	const (
		authorUID = socialgraph.UserID(90)
		viewerUID = socialgraph.UserID(10)
	)
	s.author = s.c.NewDevice(authorUID)
	s.viewer = s.c.NewDeviceVia(s.fn, device.Config{
		User:        viewerUID,
		Backoff:     faults.BackoffPolicy{Base: 10 * time.Millisecond, Max: 160 * time.Millisecond},
		BackoffSeed: s.seed + 1,
	})
	if err := s.viewer.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := s.viewer.Subscribe(apps.AppMessenger, "messenger", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.w = watch(st)
	s.thread = newThread(t, s.author, authorUID, viewerUID)
	s.topic = apps.MailboxTopic(viewerUID)
	waitFor(t, "mailbox subscription", func() bool {
		return len(s.c.Pylon.Subscribers(s.topic)) >= 1
	})
	s.send("baseline")
	waitFor(t, "baseline delivery", func() bool { return s.w.hasAll(s.sent) })
	return s
}

// send has the author send one message.
func (s *messengerStorm) send(text string) {
	s.t.Helper()
	msg := fmt.Sprintf(`sendMessage(threadID: %d, text: "%s")`, s.thread, text)
	if _, err := s.author.Mutate(msg); err != nil {
		s.t.Fatal(err)
	}
	s.sent++
}

// storm sends stormLen messages, running during, if set, after each.
func (s *messengerStorm) storm(during func(i int)) {
	for i := 0; i < stormLen; i++ {
		s.send(fmt.Sprintf("storm-%d", i))
		if during != nil {
			during(i)
		}
	}
}

// cutPOPs puts seeded connection chaos on top of the shedding: it cuts every
// POP, lets the viewer notice, heals, and requires the viewer's stream to be
// resubscribed. Then it requires that the storm shed, for the run to mean
// anything.
func (s *messengerStorm) cutPOPs() {
	pops := s.c.POPTargets()
	attached, resubs := s.viewer.Reconnects.Value(), s.viewer.Resubscribes.Value()
	for _, pop := range pops {
		s.fn.Cut(pop)
	}
	time.Sleep(50 * time.Millisecond)
	for _, pop := range pops {
		s.fn.Heal(pop)
	}
	waitFor(s.t, "device reconnected", func() bool { return s.viewer.Reconnects.Value() > attached })
	waitFor(s.t, "stream resubscribed", func() bool { return s.viewer.Resubscribes.Value() > resubs })
	for _, h := range s.c.Hosts {
		s.sheds += h.StreamSheds.Value() + h.LoopOverflows.Value()
	}
	if s.sheds == 0 {
		s.t.Fatal("storm produced zero sheds; overload plane never engaged")
	}
}

// settle trickles messages until the view is gap-free: each is under the
// admission rate, so it lands and closes any open shed episode, while the
// reopens backfill everything the storm dropped. FlowRecovered is emitted
// lazily (on the next admitted payload after a shed episode), so the trickle
// also drives flow-state convergence. The POP cut can beat the first shed
// marker, and the reconnect's resubscribe then repairs everything: the gap
// must have closed through a resubscribe, not necessarily a marker's reopen.
func (s *messengerStorm) settle() {
	settled := func() bool {
		recovered, last := s.w.snapshot()
		return s.w.hasAll(s.sent) && recovered > 0 && last == burst.FlowRecovered
	}
	deadline := time.Now().Add(20 * time.Second)
	for !settled() {
		if time.Now().After(deadline) {
			recovered, last := s.w.snapshot()
			s.t.Fatalf("never settled (seed %d): %d sent, first missing seqs %v, resumes=%d, resubscribes=%d, recovered=%d, lastFlow=%v",
				s.seed, s.sent, s.w.missing(s.sent, 10), s.viewer.Resumes.Value(), s.viewer.Resubscribes.Value(), recovered, last)
		}
		s.send("trickle")
		time.Sleep(50 * time.Millisecond)
	}
	if s.viewer.Resubscribes.Value() == 0 {
		s.t.Error("gap closed without any resubscribe — the recovery path never engaged")
	}
}

// close tears the scenario down and requires the goroutine count to return
// to its baseline.
func (s *messengerStorm) close() {
	s.viewer.Close()
	s.author.Close()
	s.w.done.Wait()
	s.c.Close()
	waitFor(s.t, "goroutines drained", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= s.goroutinesBefore+3
	})
}

// TestChaosOverloadGapFreeResync storms one mailbox stream hard enough to
// shed, cuts the device's POP mid-storm, and asserts the device's view is
// eventually gap-free purely through stream reopens (shed markers and the
// reconnect alike) and the BRASS catch-up that answers them.
func TestChaosOverloadGapFreeResync(t *testing.T) {
	s := newMessengerStorm(t, nil)

	// Mid-storm churner: an extra host subscribes to the hot topic while
	// shedding is active, then unsubscribes — the version bump must
	// invalidate every cached member list even under overload.
	churn := &recHost{id: "churn-overload"}
	s.c.Pylon.RegisterHost(churn)
	s.storm(func(i int) {
		switch i {
		case stormLen / 3:
			if err := s.c.Pylon.Subscribe(s.topic, churn.id); err != nil {
				t.Fatalf("mid-storm subscribe: %v", err)
			}
		case 2 * stormLen / 3:
			if err := s.c.Pylon.Unsubscribe(s.topic, churn.id); err != nil {
				t.Fatalf("mid-storm unsubscribe: %v", err)
			}
		}
	})
	if churn.n.Load() == 0 {
		t.Error("churned host saw no deliveries while subscribed mid-storm")
	}
	s.c.Pylon.RemoveHost(churn.id)
	silentAt := churn.n.Load()

	s.cutPOPs()
	s.settle()

	// The removed churn host stays silent for post-removal publishes.
	s.send("post-churn")
	waitFor(t, "post-churn delivery", func() bool { return s.w.hasAll(s.sent) })
	if got := churn.n.Load(); got != silentAt {
		t.Errorf("removed host delivered %d events after unsubscribe+remove", got-silentAt)
	}
	if s.c.Pylon.SubCacheStale.Value() == 0 {
		t.Error("subscriber churn never invalidated a cached member list")
	}

	s.close()
	t.Logf("seed %d: sent=%d sheds=%d resubscribes=%d resumes=%d coalesced=%d",
		s.seed, s.sent, s.sheds, s.viewer.Resubscribes.Value(), s.viewer.Resumes.Value(),
		s.viewer.ResumesCoalesced.Value())
}
