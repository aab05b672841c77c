package apps

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
)

// lvcShare runs Live Video Comments at its production rate limit (one pop a
// stream every 2 s) on one host on virtual time: 20 viewers of one video,
// opened 100 ms apart so their pops spread over the 2 s, and a comment from a
// new commenter every 250 ms for 6 s. Beside them, noise distinct Typing
// events a second reach one stream on the same host, each a payload fetched
// once and never again. It returns LVC's payload resolutions at the WAS and
// the comments LVC delivered.
func lvcShare(t *testing.T, noise int) (resolved, delivered int64) {
	t.Helper()
	const (
		viewers  = 20
		comments = 24
		step     = 10 * time.Millisecond
		typer    = 150
	)
	sched := &stepScheduler{now: time.Unix(0, 0)}
	e := newEnvOn(t, sched)
	e.suite.LVC.RateLimit = 2 * time.Second
	e.suite.LVC.MinScore = 0

	// The devices drain every stream; the host's counters are what count.
	var wg sync.WaitGroup
	drain := func(st *burst.ClientStream) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rc, ok := st.Next(); ok; rc, ok = st.Next() {
				rc.Release()
			}
		}()
	}
	lvcCli, noiseCli := e.dial(t), e.dial(t)
	drain(e.subscribe(t, noiseCli, AppTyping, fmt.Sprintf("typingIndicator(threadID: 55, peer: %d)", typer), 1, nil))
	waitFor(t, "typing stream", func() bool { return e.host.StreamsOpened.Value() == 1 })

	// tick publishes one step's noise, lets the host serve it, then moves
	// time on and lets the host serve the timers that came due.
	perStep := noise * int(step) / int(time.Second)
	published := 0
	tick := func() {
		for range perStep {
			published++
			if _, err := e.pylon.Publish(pylon.Event{Topic: TypingTopic(55, typer), Ref: 55, Author: typer}); err != nil {
				t.Fatal(err)
			}
		}
		e.host.Quiesce()
		sched.Advance(step)
		e.host.Quiesce()
	}
	run := func(d time.Duration) {
		for end := sched.Now().Add(d); sched.Now().Before(end); {
			tick()
		}
	}

	for v := socialgraph.UserID(1); v <= viewers; v++ {
		drain(e.subscribe(t, lvcCli, AppLiveComments, "liveVideoComments(videoID: 900)", v, nil))
		waitFor(t, "viewer "+strconv.Itoa(int(v)), func() bool { return e.host.StreamsOpened.Value() == int64(v)+1 })
		run(100 * time.Millisecond)
	}
	for i := 0; i < comments; i++ {
		if _, err := e.was.Mutate(socialgraph.UserID(100+i), fmt.Sprintf(`postComment(videoID: 900, text: "live comment %d")`, i)); err != nil {
			t.Fatal(err)
		}
		run(250 * time.Millisecond)
	}
	run(4 * time.Second) // every buffered comment popped or expired
	noiseCli.Close()
	lvcCli.Close()
	wg.Wait()
	// The host has served every step before time moved on, so each noise
	// event is one delivery and one resolution of its own.
	return e.was.PayloadFetches.Value() - int64(published), e.host.Deliveries.Value() - int64(published)
}

// TestLVCSharesPayloadsBesideOtherApps: LVC's viewers pop a comment up to
// one rate limit apart, so a comment's payload is shared only if its cache
// entry outlives the fetches between those pops. Another app's distinct
// events on the same host, at 18 000 a second (mailbox_sparse's rate per
// BRASS host on a 2-vCPU box), must not take that sharing away: LVC resolves
// as many payloads beside them as alone.
func TestLVCSharesPayloadsBesideOtherApps(t *testing.T) {
	const noise = 18000
	quiet, delivered := lvcShare(t, 0)
	busy, busyDelivered := lvcShare(t, noise)
	t.Logf("LVC delivered %d comments with %d payload resolutions alone, %d beside %d noise events/s", delivered, quiet, busy, noise)
	if busyDelivered != delivered {
		t.Fatalf("LVC delivered %d comments beside the noise, %d alone", busyDelivered, delivered)
	}
	if quiet*2 > delivered {
		t.Fatalf("%d resolutions for %d deliveries alone: the viewers share too little for the test to show anything", quiet, delivered)
	}
	if busy != quiet {
		t.Errorf("LVC resolved %d payloads beside another app's distinct events, %d alone: the other app's fetches evicted its comments", busy, quiet)
	}
}
