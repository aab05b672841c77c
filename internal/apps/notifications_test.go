package apps

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
	"bladerunner/internal/socialgraph"
)

func TestNotificationsBadgeAndResume(t *testing.T) {
	e := newEnv(t)
	cli := e.dial(t)
	user := socialgraph.UserID(60)
	actor := socialgraph.UserID(61)
	st := e.subscribe(t, cli, AppNotifications, "websiteNotifications", user, nil)
	waitFor(t, "sub", func() bool {
		return len(e.pylon.Subscribers(NotifTopic(uint64(user)))) == 1
	})

	// Two notifications: the badge counts up.
	for i := 1; i <= 2; i++ {
		if _, err := e.was.Mutate(actor,
			fmt.Sprintf(`notify(user: 60, kind: "mention", text: "n%d")`, i)); err != nil {
			t.Fatal(err)
		}
	}
	for want := uint64(1); want <= 2; want++ {
		d := recvPayload(t, st)
		var p NotificationPayload
		if err := json.Unmarshal(d.Payload, &p); err != nil {
			t.Fatal(err)
		}
		if p.Unseen != want || p.Kind != "mention" || p.Actor != uint64(actor) {
			t.Errorf("notif = %+v, want unseen=%d", p, want)
		}
	}
	// Badge state persisted in the header via rewrites.
	waitFor(t, "badge header", func() bool {
		return st.Request().Header[HdrUnseenCount] == "2"
	})

	// A reconnecting device restores its badge from the header.
	saved := st.Request()
	saved.Header[HdrUnseenCount] = "7"
	cli2 := e.dial(t)
	st2, err := cli2.Subscribe(saved)
	if err != nil {
		t.Fatal(err)
	}
	// The topic is already Pylon-subscribed via the first stream; wait for
	// the second stream's server-side open to complete instead.
	waitFor(t, "second stream open", func() bool {
		return e.host.StreamsOpened.Value() >= 2
	})
	if _, err := e.was.Mutate(actor, `notify(user: 60, kind: "like", text: "again")`); err != nil {
		t.Fatal(err)
	}
	d := recvPayload(t, st2)
	var p NotificationPayload
	_ = json.Unmarshal(d.Payload, &p)
	if p.Unseen != 8 {
		t.Errorf("restored badge continued at %d, want 8", p.Unseen)
	}
}

func TestNotificationsPrivacyFilter(t *testing.T) {
	e := newEnv(t)
	cli := e.dial(t)
	user := socialgraph.UserID(62)
	blocked := socialgraph.UserID(63)
	e.graph.Block(user, blocked)
	st := e.subscribe(t, cli, AppNotifications, "websiteNotifications", user, nil)
	waitFor(t, "sub", func() bool {
		return len(e.pylon.Subscribers(NotifTopic(uint64(user)))) == 1
	})
	if _, err := e.was.Mutate(blocked, `notify(user: 62, kind: "poke", text: "hi")`); err != nil {
		t.Fatal(err)
	}
	e.host.Quiesce()
	select {
	case b := <-bursttest.Events(t, st):
		for _, d := range b.Deltas {
			if d.Type == burst.DeltaPayload {
				t.Errorf("blocked actor's notification delivered: %s", d.Payload)
			}
		}
	default:
	}
}

// One notification is one decision and ONE batch: the payload and the badge
// state it implies are applied together (§3.5), so the device's stored
// unseen-count can never lag the notification it is showing.
func TestNotificationPayloadAndBadgeShareOneBatch(t *testing.T) {
	e := newEnv(t)
	cli := e.dial(t)
	cli.Relay = true // see rewrites as a proxy would
	st := e.subscribe(t, cli, AppNotifications, "websiteNotifications", 62, nil)
	waitFor(t, "sub", func() bool { return len(e.pylon.Subscribers(NotifTopic(62))) == 1 })
	if _, err := e.was.Mutate(63, `notify(user: 62, kind: "mention", text: "hi")`); err != nil {
		t.Fatal(err)
	}
	for arrived := false; !arrived; {
		select {
		case batch := <-bursttest.Events(t, st):
			d := batch.Deltas
			if d[0].Type != burst.DeltaPayload {
				continue // the host's sticky-routing rewrite at stream open
			}
			arrived = true
			if len(d) != 2 || d[1].Type != burst.DeltaRewriteRequest ||
				len(d[1].Header) != 1 || d[1].Header[HdrUnseenCount] != "1" {
				t.Fatalf("notification arrived as %+v, want ONE batch [payload, rewrite{unseen-count: 1}]", d)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no notification")
		}
	}
}
