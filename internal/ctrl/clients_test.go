package ctrl

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// collector implements pylon.Subscriber.
type collector struct {
	id string
	mu sync.Mutex
	ev []pylon.Event
}

func (c *collector) ID() string { return c.id }
func (c *collector) Deliver(ev pylon.Event) {
	c.mu.Lock()
	c.ev = append(c.ev, ev)
	c.mu.Unlock()
}
func (c *collector) events() []pylon.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]pylon.Event(nil), c.ev...)
}

// await polls until the collector holds n events.
func (c *collector) await(t *testing.T, n int) []pylon.Event {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if evs := c.events(); len(evs) >= n {
			return evs
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d events, want %d", c.id, len(c.events()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func newPylon(t testing.TB) *pylon.Service {
	t.Helper()
	nodes := []*kvstore.Node{
		kvstore.NewNode("a", "us"), kvstore.NewNode("b", "eu"), kvstore.NewNode("c", "ap"),
	}
	return pylon.MustNew(pylon.DefaultConfig(), kvstore.MustNewCluster(nodes, 3))
}

// sameEvent compares two events field by field; Published by instant.
func sameEvent(a, b pylon.Event) bool {
	pa, pb := a.Published, b.Published
	a.Published, b.Published = time.Time{}, time.Time{}
	return pa.Equal(pb) && fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// Every PylonClient method against a real pylon.Service; the remote host
// must see exactly the event an in-process subscriber of the same topic
// sees (ID and Published stamped by Pylon included).
func TestPylonClientEndToEnd(t *testing.T) {
	svc := newPylon(t)
	serverConn, clientConn := pair(t)
	ServePylon(serverConn, svc, nil)
	cli := NewPylonClient(clientConn)

	local := &collector{id: "local"}
	svc.RegisterHost(local)
	if err := svc.Subscribe("/t/1", "local"); err != nil {
		t.Fatal(err)
	}
	sub := &collector{id: "host-1"}
	cli.RegisterHost(sub)
	if cli.WaitForSubscriber("/t/2", 10*time.Millisecond) {
		t.Error("WaitForSubscriber on a topic nobody subscribed reported true")
	}
	if err := cli.Subscribe("/t/1", "host-1"); err != nil {
		t.Fatal(err)
	}
	if !cli.WaitForSubscriber("/t/1", time.Second) {
		t.Fatal("WaitForSubscriber timed out")
	}
	events := []pylon.Event{
		{Topic: "/t/1", Ref: 42, Seq: 3, Author: 12, Meta: map[string]string{"k": "v"}, Origin: "eu", Trace: 99},
		{Topic: "/t/1", Meta: map[string]string{}, Published: time.Unix(1600000000, 123456789)},
		{Topic: "/t/1"},
	}
	for _, ev := range events {
		if n, err := cli.Publish(ev); err != nil || n != 2 {
			t.Fatalf("Publish = %d, %v; want fan-out 2", n, err)
		}
	}
	got, want := sub.await(t, len(events)), local.await(t, len(events))
	for i := range events {
		if !sameEvent(got[i], want[i]) {
			t.Errorf("event %d over the wire = %#v\n  in process = %#v", i, got[i], want[i])
		}
	}
	if (got[1].Meta == nil) || got[2].Meta != nil {
		t.Errorf("nil and empty Meta did not stay distinct: %#v, %#v", got[1].Meta, got[2].Meta)
	}

	// Unsubscribe: fanout stops counting us.
	if err := cli.Unsubscribe("/t/1", "host-1"); err != nil {
		t.Fatal(err)
	}
	if n, _ := cli.Publish(pylon.Event{Topic: "/t/1"}); n != 1 {
		t.Errorf("post-unsubscribe fanout = %d, want 1 (the local host)", n)
	}
	cli.RemoveHost("host-1")
	if err := cli.Subscribe("/t/1", "host-1"); !errors.Is(err, pylon.ErrUnknownSubscriber) {
		t.Errorf("subscribe after RemoveHost = %v, want ErrUnknownSubscriber", err)
	}
}

// RemoveHost must drop the client's own deliver route: a delivery that was
// already on the wire may not reach the removed (closed) host, and the
// routing table may not grow under host churn.
func TestRemoveHostDropsTheDeliverRoute(t *testing.T) {
	svc := newPylon(t)
	serverConn, clientConn := pair(t)
	ServePylon(serverConn, svc, nil)
	cli := NewPylonClient(clientConn)

	gone, kept := &collector{id: "gone"}, &collector{id: "kept"}
	cli.RegisterHost(gone)
	cli.RegisterHost(kept)
	cli.RemoveHost("gone")
	// A late pylon.deliver for the removed host, then one for a live host:
	// deliveries are ordered, so once the second arrived the first was
	// routed (or dropped).
	late := &remoteSubscriber{id: "gone", conn: serverConn}
	late.Deliver(pylon.Event{Topic: "/t", Ref: 1})
	(&remoteSubscriber{id: "kept", conn: serverConn}).Deliver(pylon.Event{Topic: "/t", Ref: 2})
	kept.await(t, 1)
	if evs := gone.events(); len(evs) != 0 {
		t.Errorf("removed host still got %v", evs)
	}
	cli.RemoveHost("kept")
	for i := 0; i < 50; i++ {
		h := &collector{id: fmt.Sprintf("churn-%d", i)}
		cli.RegisterHost(h)
		cli.RemoveHost(h.id)
	}
	cli.mu.Lock()
	defer cli.mu.Unlock()
	if len(cli.subs) != 0 {
		t.Errorf("deliver routes after removing every host: %d, want 0", len(cli.subs))
	}
}

// newWAS builds a WAS with one field of each kind; every resolver folds
// everything it was handed into its answer, so a dropped or swapped
// argument shows.
func newWAS(t testing.TB) *was.Server {
	t.Helper()
	store := tao.MustNewStore(tao.DefaultConfig(), nil)
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 100, MeanFriends: 5, Seed: 1})
	srv := was.New(store, graph, newPylon(t), nil)
	echo := func(ctx was.Ctx, call was.FieldCall) (any, error) {
		if fail, _ := call.StringArg("fail"); fail != "" {
			return nil, fmt.Errorf("resolver failed on %s", fail)
		}
		text, _ := call.StringArg("text")
		return fmt.Sprintf("%s|%s|viewer=%d|region=%s", call.Name, text, ctx.Viewer, ctx.Region), nil
	}
	srv.RegisterQuery("read", echo)
	srv.RegisterMutation("write", echo)
	srv.RegisterSubscription("watch", func(ctx was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		n, err := call.Uint64Arg("n")
		topics := make([]pylon.Topic, n)
		for i := range topics {
			topics[i] = pylon.Topic(fmt.Sprintf("/watch/%d/%d", ctx.Viewer, i))
		}
		return topics, err
	})
	srv.RegisterPayload("app", func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) (any, error) {
		ev.Published = ev.Published.UTC()
		return fmt.Sprintf("ref=%d|viewer=%d|region=%s|%#v", ref, ctx.Viewer, ctx.Region, ev), nil
	})
	return srv
}

// Every WASClient method against a real was.Server returns what the direct
// call returns: the same bytes, or an error of the same class whose text
// carries the server's.
func TestWASClientEndToEnd(t *testing.T) {
	srv := newWAS(t)
	srv.Graph.Block(1, 12)
	serverConn, clientConn := pair(t)
	ServeWAS(serverConn, srv)
	cli := NewWASClient(clientConn)

	same := func(what string, got, want []byte, gotErr, wantErr error) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s over the wire = %q, direct = %q", what, got, want)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s over the wire err = %v, direct err = %v", what, gotErr, wantErr)
		}
		if wantErr == nil {
			return
		}
		for _, sentinel := range []error{was.ErrDenied, was.ErrUnknownField, was.ErrUnknownUser} {
			if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
				t.Errorf("%s: errors.Is(%v) differs: wire %v, direct %v", what, sentinel, gotErr, wantErr)
			}
		}
		if !strings.Contains(gotErr.Error(), wantErr.Error()) {
			t.Errorf("%s: wire error %q lost the server's %q", what, gotErr, wantErr)
		}
	}

	type exprFn func(string, socialgraph.UserID, string) ([]byte, error)
	for _, c := range []struct {
		name         string
		wire, direct exprFn
		field        string
	}{
		{"QueryIn", cli.QueryIn, srv.QueryIn, "read"},
		{"MutateIn", cli.MutateIn, srv.MutateIn, "write"},
	} {
		for _, expr := range []string{
			c.field + `(text: "héllo, wörld")`,
			c.field + `(fail: "purpose")`,
			"noSuchField(a: 1)",
			"not ( an expression",
			"",
		} {
			// 101 is beyond the 100-user graph: ErrUnknownUser, on both sides.
			for _, viewer := range []socialgraph.UserID{7, 101} {
				for _, region := range []string{"", "eu"} {
					got, gotErr := c.wire(region, viewer, expr)
					want, wantErr := c.direct(region, viewer, expr)
					same(fmt.Sprintf("%s(%q, %d, %q)", c.name, region, viewer, expr), got, want, gotErr, wantErr)
				}
			}
		}
	}

	for _, viewer := range []socialgraph.UserID{9, 101} {
		for _, expr := range []string{"watch(n: 3)", "watch(n: 0)", "watch(n: x)", "noSuchField"} {
			got, gotErr := cli.ResolveSubscription(viewer, expr)
			want, wantErr := srv.ResolveSubscription(viewer, expr)
			same(fmt.Sprintf("ResolveSubscription(%d, %q)", viewer, expr), nil, nil, gotErr, wantErr)
			if fmt.Sprint(got) != fmt.Sprint(want) || len(got) != len(want) {
				t.Errorf("ResolveSubscription(%d, %q) over the wire = %v, direct = %v", viewer, expr, got, want)
			}
		}
	}

	events := map[string]pylon.Event{
		"no author":      {Topic: "/t", Ref: 5},
		"visible author": {Topic: "/t", Ref: 5, Author: 13, Published: time.Unix(1600000000, 1), Origin: "eu", Trace: 4},
		"blocked author": {Topic: "/t", Ref: 5, Author: 12, Meta: map[string]string{"k": "v"}},
	}
	for name, ev := range events {
		gotErr, wantErr := cli.CheckEventVisibility(1, ev), srv.CheckEventVisibility(1, ev)
		same("CheckEventVisibility "+name, nil, nil, gotErr, wantErr)
		if denied := strings.HasPrefix(name, "b"); denied != errors.Is(gotErr, was.ErrDenied) {
			t.Errorf("CheckEventVisibility %s over the wire = %v, want denied=%v", name, gotErr, denied)
		}
		for _, app := range []string{"app", "ghost"} {
			got, gotErr := cli.FetchPayloadIn("eu", app, 1, ev)
			want, wantErr := srv.FetchPayloadIn("eu", app, 1, ev)
			same("FetchPayloadIn "+app+" "+name, got, want, gotErr, wantErr)
			got, gotErr = cli.ResolvePayloadIn("ap", app, ev)
			want, wantErr = srv.ResolvePayloadIn("ap", app, ev)
			same("ResolvePayloadIn "+app+" "+name, got, want, gotErr, wantErr)
		}
	}
}

func TestNodeEndToEnd(t *testing.T) {
	serverConn, clientConn := pair(t)
	drained := make(chan struct{}, 1)
	ServeNode(serverConn, "brass", func() { drained <- struct{}{} })
	if role, err := Ping(clientConn); err != nil || role != "brass" {
		t.Errorf("Ping = %q, %v; want brass", role, err)
	}
	if err := Drain(clientConn); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	default:
		t.Error("Drain returned before the drain callback ran")
	}
}
