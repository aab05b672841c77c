package faults_test

import (
	"fmt"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/edge"
	"bladerunner/internal/faults"
	"bladerunner/internal/socialgraph"
)

// TestChaosStalledPOPMessengerGapFree stalls a Messenger device's links to
// every POP while messages go out. As over TCP, the serving POP's link to the
// device first buffers edge.PipeBuffer bytes of them; then its upstream leg
// fills and sheds payloads, and announces it with a marker where the first
// one was. Once the stall lifts, the device reads on to the marker and reopens
// the stream from the point it has; the serving BRASS replays everything after
// it as one batch longer than any queue's bound. Every seq must reach the app.
func TestChaosStalledPOPMessengerGapFree(t *testing.T) {
	seed := chaosSeed(t)
	cfg := core.DefaultConfig()
	cfg.Graph.Users = 100
	cfg.Graph.BlockProb = 0
	c := core.MustNewCluster(cfg, nil)
	defer c.Close()
	fn := faults.NewFaultNetwork(c.Net, nil)
	pops := c.POPTargets()

	const (
		authorUID = socialgraph.UserID(90)
		viewerUID = socialgraph.UserID(10)
		// overflow messages more than the link holds overflow the POP's leg.
		overflow = 400
	)
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

	thread := newThread(t, author, authorUID, viewerUID)
	waitFor(t, "mailbox subscription", func() bool {
		return len(c.Pylon.Subscribers(apps.MailboxTopic(viewerUID))) >= 1
	})
	// The open's own catch-up batch, which stores the cursor, must be
	// off the wire before the stall: otherwise it is what the device's
	// waiting read takes, and the first message stalls behind it.
	waitFor(t, "the open's cursor", func() bool { return st.HeaderField(burst.HdrCursor) != "" })

	// Each message is one [payload, rewrite{cursor}] batch, so
	// the reverse proxies have relayed all of them to the stalled POP once
	// their rewrite count has grown by sent.
	relayed := func() (n int64) {
		for _, p := range c.Proxies {
			n += p.RewritesRelayed.Value()
		}
		return n
	}
	before := relayed()
	for _, pop := range pops {
		fn.Stall(pop)
	}
	send := func(i int) {
		if _, err := author.Mutate(fmt.Sprintf(`sendMessage(threadID: %d, text: "m%d")`, thread, i)); err != nil {
			t.Fatal(err)
		}
	}
	// A stall parks the reads that start after it, so the device's read
	// already waiting takes one more write: the first message. Were the
	// POP's leg to shed before its writer's first write, that read would
	// carry the marker, and the device would reopen during the stall.
	send(1)
	waitFor(t, "the first message to reach the app", func() bool { return w.hasAll(1) })
	// Each message's batch is longer than its payload, and no payload is
	// shorter than the first, so fill messages more than fill the link.
	w.mu.Lock()
	fill := edge.PipeBuffer/w.minPayload + 1
	w.mu.Unlock()
	sent := fill + overflow
	for i := 2; i <= sent; i++ {
		send(i)
	}
	waitFor(t, "the reverse proxies to relay every message", func() bool { return relayed()-before >= int64(sent) })
	for _, pop := range pops {
		fn.Unstall(pop)
	}

	deadline := time.Now().Add(15 * time.Second)
	for !w.hasAll(uint64(sent)) {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: %d of %d seqs never reached the app (resumes=%d, resubscribes=%d)",
				seed, len(w.missing(uint64(sent), sent)), sent, viewer.Resumes.Value(), viewer.Resubscribes.Value())
		}
		time.Sleep(time.Millisecond)
	}
	var notices int64
	for _, p := range c.POPs {
		notices += p.ShedNotices.Value()
	}
	t.Logf("seed %d: %d shed notices, %d resumes, %d resubscribes", seed, notices, viewer.Resumes.Value(), viewer.Resubscribes.Value())
	if notices == 0 || viewer.Resumes.Value() == 0 {
		t.Errorf("the stall was repaired without a shed (%d notices) or a resume (%d)", notices, viewer.Resumes.Value())
	}
}
