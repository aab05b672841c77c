package brass

import (
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// retryEnv is newEnv with the KV nodes exposed so tests can break the
// subscription quorum, and a fast subscription-retry backoff.
type retryEnv struct {
	*testEnv
	kvNodes []*kvstore.Node
	kv      *kvstore.Cluster
}

// kvDown is the fault hook of a KV node that is down: every op fails.
func kvDown(op, key string) error { return kvstore.ErrNodeDown }

func newRetryEnv(t *testing.T) *retryEnv {
	t.Helper()
	nodes := []*kvstore.Node{
		kvstore.NewNode("a", "us"), kvstore.NewNode("b", "eu"), kvstore.NewNode("c", "ap"),
	}
	kv := kvstore.MustNewCluster(nodes, 3)
	pyl := pylon.MustNew(pylon.DefaultConfig(), kv)
	store := tao.MustNewStore(tao.DefaultConfig(), nil)
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 50, MeanFriends: 5, Seed: 1})
	w := was.New(store, graph, pyl, nil)
	app := &echoApp{}
	host := NewHost(HostConfig{ID: "brass-1", Region: "us"}, pyl, w, nil)
	host.RegisterApp(app)
	t.Cleanup(host.Close)
	return &retryEnv{
		testEnv: &testEnv{pylon: pyl, was: w, host: host, app: app},
		kvNodes: nodes,
		kv:      kv,
	}
}

// TestTransientPylonFailureRetriedInBackground: a quorum loss during the
// first Pylon registration must not kill the stream — the subscription
// manager keeps the local ref and re-establishes the registration once the
// quorum returns, after which delivery flows.
func TestTransientPylonFailureRetriedInBackground(t *testing.T) {
	env := newRetryEnv(t)
	const topic = "/t/retry"
	// Down every replica: the registration write has no quorum and no
	// partial acks linger on a surviving replica.
	replicas := env.kv.ReplicasFor(topic)
	for _, n := range replicas {
		n.SetOpHook(kvDown)
	}

	cli := dialHost(t, env.testEnv)
	ev := bursttest.Events(t, openStream(t, cli, topic))

	// The stream stays open with a live local ref and a pending retry; no
	// Pylon registration exists yet.
	waitFor(t, "pending background subscription", func() bool {
		return env.host.PendingSubs() == 1 && env.host.TopicRefs(topic) == 1
	})
	waitFor(t, "retries attempted against the broken quorum", func() bool {
		return env.host.PylonSubRetries.Value() >= 2
	})
	if subs := env.pylon.Subscribers(topic); len(subs) != 0 {
		t.Fatalf("subscribers during quorum loss = %v", subs)
	}
	select {
	case batch := <-ev:
		t.Fatalf("stream received %+v during quorum loss, want nothing", batch.Deltas)
	default:
	}

	// Quorum heals; the background retry lands.
	for _, n := range replicas {
		n.SetOpHook(nil)
	}
	waitFor(t, "registration re-established", func() bool {
		return env.host.PendingSubs() == 0 && len(env.pylon.Subscribers(topic)) == 1
	})
	if env.host.PylonSubs.Value() != 1 {
		t.Errorf("PylonSubs = %d, want 1", env.host.PylonSubs.Value())
	}

	// Delivery now flows end to end.
	if _, err := env.pylon.Publish(pylon.Event{Topic: topic, Ref: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case batch := <-ev:
		if string(batch.Deltas[0].Payload) != "ref=7" {
			t.Errorf("payload = %q", batch.Deltas[0].Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery never arrived after quorum recovery")
	}
}

// TestStreamCloseCancelsPendingRetry: when the last local ref for a topic
// disappears while its registration retry is still pending, the retry is
// cancelled — the host must not register for a topic nobody wants.
func TestStreamCloseCancelsPendingRetry(t *testing.T) {
	env := newRetryEnv(t)
	const topic = "/t/cancelled"
	replicas := env.kv.ReplicasFor(topic)
	for _, n := range replicas {
		n.SetOpHook(kvDown)
	}

	cli := dialHost(t, env.testEnv)
	st := openStream(t, cli, topic)
	waitFor(t, "pending retry", func() bool { return env.host.PendingSubs() == 1 })

	if err := st.Cancel("done"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "retry cancelled with last ref", func() bool {
		return env.host.PendingSubs() == 0 && env.host.TopicRefs(topic) == 0
	})

	// Quorum heals; nothing re-registers because no stream wants the topic.
	for _, n := range replicas {
		n.SetOpHook(nil)
	}
	time.Sleep(100 * time.Millisecond)
	if subs := env.pylon.Subscribers(topic); len(subs) != 0 {
		t.Errorf("subscribers after cancellation = %v, want none", subs)
	}
}

// TestPermanentPylonFailureStillErrors: ErrUnknownSubscriber is not
// retried — the stream open fails as before.
func TestPermanentPylonFailureStillErrors(t *testing.T) {
	env := newRetryEnv(t)
	// Deregister the host from Pylon: registrations now fail permanently.
	env.pylon.RemoveHost(env.host.ID())
	cli := dialHost(t, env.testEnv)
	st := openStream(t, cli, "/t/orphan")
	// The app's OnStreamOpen error terminates the stream.
	select {
	case batch := <-bursttest.Events(t, st):
		if batch.Deltas[0].Type != burst.DeltaTermination {
			t.Errorf("got %+v, want termination", batch.Deltas[0])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream with permanent subscribe failure never terminated")
	}
	if env.host.PendingSubs() != 0 {
		t.Errorf("PendingSubs = %d after permanent failure", env.host.PendingSubs())
	}
}
