package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/device"
	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
)

// Failure-injection tests: the paper's §4 failure axioms exercised on the
// full wired deployment.

// kvDown is the fault hook of a KV node that is down: every op fails.
func kvDown(op, key string) error { return kvstore.ErrNodeDown }

// TestPylonQuorumLossBlocksNewSubscriptions kills enough KV replicas to
// break the subscription quorum for a topic: new subscriptions must fail
// (CP), while event delivery for already-subscribed topics continues until
// all replicas are gone (AP).
func TestPylonQuorumLossBlocksNewSubscriptions(t *testing.T) {
	c := newCluster(t)
	// Subscribe one stream successfully first.
	viewer := c.NewDevice(5)
	defer viewer.Close()
	if err := viewer.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := viewer.Subscribe(apps.AppFeedComments, "feedPostComments(postID: 42)", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	topic := apps.PostTopic(42)
	waitFor(t, "subscription", func() bool { return len(c.Pylon.Subscribers(topic)) >= 1 })

	// Break the quorum for a *different* topic's replicas.
	victim := apps.PostTopic(43)
	replicas := c.KV.ReplicasFor(string(victim))
	replicas[0].SetOpHook(kvDown)
	replicas[1].SetOpHook(kvDown)
	// A direct Pylon subscribe for the victim topic fails CP-style.
	if err := c.Pylon.Subscribe(victim, c.Hosts[0].ID()); !errors.Is(err, pylon.ErrNoQuorum) {
		t.Errorf("subscribe with broken quorum: %v", err)
	}

	// Delivery on the healthy topic still works (AP for data).
	author := c.NewDevice(6)
	defer author.Close()
	if _, err := author.Mutate(`postFeedComment(postID: 42, text: "still flowing")`); err != nil {
		t.Fatal(err)
	}
	if _, ok := payload(t, st, 10*time.Second); !ok {
		t.Fatal("healthy topic delivery stalled during unrelated quorum loss")
	}

	// Replicas recover; the victim topic becomes subscribable again.
	replicas[0].SetOpHook(nil)
	replicas[1].SetOpHook(nil)
	if err := c.Pylon.Subscribe(victim, c.Hosts[0].ID()); err != nil {
		t.Errorf("subscribe after recovery: %v", err)
	}
}

// TestPOPFailureReconnectStorm drops a POP serving several devices; every
// device must reconnect through the alternate POP and its streams must
// keep delivering.
func TestPOPFailureReconnectStorm(t *testing.T) {
	c := newCluster(t)
	const n = 6
	devices := make([]*device.Device, n)
	streams := make([]*device.Stream, n)
	for i := 0; i < n; i++ {
		devices[i] = c.NewDevice(socialgraph.UserID(20 + i))
		defer devices[i].Close()
		if err := devices[i].Connect(); err != nil {
			t.Fatal(err)
		}
		st, err := devices[i].Subscribe(apps.AppFeedComments, "feedPostComments(postID: 88)", nil)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = st
	}
	waitFor(t, "all initial streams open", func() bool {
		var opened int64
		for _, h := range c.Hosts {
			opened += h.StreamsOpened.Value()
		}
		return opened == n && len(c.Pylon.Subscribers(apps.PostTopic(88))) >= 1
	})

	// Kill pop-0: every device connected through it (all of them: each
	// dials its first POP) loses its session.
	c.Net.SetDown(true, "pop-0")
	c.POPs[0].Close()

	// All devices reconnect (through pop-1) and resubscribe.
	waitFor(t, "reconnect storm settles", func() bool {
		for _, d := range devices {
			if d.Reconnects.Value() < 1 {
				return false
			}
		}
		return true
	})

	// Delivery works for every device after the storm. Wait until every
	// stream's serving host (identified by the sticky-routing header its
	// BRASS rewrote) is re-registered with Pylon, then post.
	waitFor(t, "resubscribed", func() bool {
		for _, d := range devices {
			if d.Resubscribes.Value() < 1 {
				return false
			}
		}
		subs := map[string]bool{}
		for _, s := range c.Pylon.Subscribers(apps.PostTopic(88)) {
			subs[s] = true
		}
		for _, st := range streams {
			host := st.Request().Header[burst.HdrStickyBRASS]
			if host == "" || !subs[host] {
				return false
			}
		}
		// And the storm has fully settled server-side: all n original
		// streams closed and all n replacements opened (anything less
		// can transiently balance to n live streams mid-storm).
		var opened, closed int64
		for _, h := range c.Hosts {
			opened += h.StreamsOpened.Value()
			closed += h.StreamsClosed.Value()
		}
		return closed == n && opened == 2*n
	})
	author := c.NewDevice(90)
	defer author.Close()
	if _, err := author.Mutate(`postFeedComment(postID: 88, text: "after the storm")`); err != nil {
		t.Fatal(err)
	}
	for i, st := range streams {
		d, ok := payload(t, st, 10*time.Second)
		if !ok {
			t.Fatalf("device %d never recovered delivery", i)
		}
		var p apps.CommentPayload
		_ = json.Unmarshal(d.Payload, &p)
		if p.Text != "after the storm" {
			t.Errorf("device %d got %q", i, p.Text)
		}
	}
}

// TestMessengerSurvivesProxyFailure runs the reliable application across a
// mid-path (reverse proxy) failure: the POP repairs the stream to another
// proxy and the mailbox catch-up closes any gap.
func TestMessengerSurvivesProxyFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProxiesPerRegion = 2 // need an alternate proxy in-region
	cfg.Graph.Users = 100
	cfg.Graph.BlockProb = 0
	c, err := NewCluster(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	alice, bob := socialgraph.UserID(1), socialgraph.UserID(2)
	aliceDev := c.NewDevice(alice)
	defer aliceDev.Close()
	out, err := aliceDev.Mutate(`createThread(members: "1,2")`)
	if err != nil {
		t.Fatal(err)
	}
	var tid uint64
	if err := json.Unmarshal(out, &tid); err != nil {
		t.Fatalf("createThread replied %q: %v", out, err)
	}

	bobDev := c.NewDevice(bob)
	defer bobDev.Close()
	if err := bobDev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := bobDev.Subscribe(apps.AppMessenger, "messenger", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "mailbox subscription", func() bool {
		return len(c.Pylon.Subscribers(apps.MailboxTopic(bob))) >= 1
	})

	recv := func(what string) apps.MessagePayload {
		t.Helper()
		d, ok := payload(t, st, 10*time.Second)
		if !ok {
			t.Fatalf("timed out: %s", what)
		}
		var m apps.MessagePayload
		_ = json.Unmarshal(d.Payload, &m)
		return m
	}
	send := func(text string) {
		t.Helper()
		if _, err := aliceDev.Mutate(fmt.Sprintf(`sendMessage(threadID: %d, text: "%s")`, tid, text)); err != nil {
			t.Fatal(err)
		}
	}

	send("one")
	if m := recv("msg one"); m.Seq != 1 {
		t.Fatalf("first message seq = %d", m.Seq)
	}

	// Kill every proxy in one region; POP repairs through the rest.
	c.Net.SetDown(true, "proxy-us-east-0")
	c.Proxies[0].Close()

	// Messages sent during/after the failure still arrive, possibly via
	// the mailbox catch-up on the repaired stream. If the resume-token
	// rewrite was in flight when the proxy died, earlier messages may be
	// re-delivered (at-least-once on repair) — the device dedups by
	// sequence number, exactly as the paper prescribes.
	send("two")
	send("three")
	got := map[uint64]string{}
	lastSeq := uint64(1) // device-side dedup cursor
	deadline := time.Now().Add(15 * time.Second)
	for got[3] == "" && time.Now().Before(deadline) {
		d, ok := payload(t, st, time.Until(deadline))
		if !ok {
			break
		}
		var m apps.MessagePayload
		_ = json.Unmarshal(d.Payload, &m)
		if m.Seq <= lastSeq {
			continue // duplicate from the repair window
		}
		lastSeq = m.Seq
		got[m.Seq] = m.Text
	}
	if got[2] != "two" || got[3] != "three" {
		t.Errorf("post-failure messages = %v", got)
	}
}
