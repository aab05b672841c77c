package brass

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// payloadEnv builds a host whose WAS counts payload resolutions.
type payloadEnv struct {
	host    *Host
	was     *was.Server
	graph   *socialgraph.Graph
	resolve *atomic.Int64 // PayloadFunc invocations
}

func newPayloadEnv(t *testing.T, cfg HostConfig) *payloadEnv {
	t.Helper()
	nodes := []*kvstore.Node{
		kvstore.NewNode("a", "us"), kvstore.NewNode("b", "eu"), kvstore.NewNode("c", "ap"),
	}
	pyl := pylon.MustNew(pylon.DefaultConfig(), kvstore.MustNewCluster(nodes, 3))
	store := tao.MustNewStore(tao.DefaultConfig(), nil)
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 50, MeanFriends: 5, Seed: 1})
	w := was.New(store, graph, pyl, nil)
	env := &payloadEnv{was: w, graph: graph, resolve: &atomic.Int64{}}
	w.RegisterPayload("echo", func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) ([]byte, error) {
		env.resolve.Add(1)
		return fmt.Appendf(nil, `{"ref":%d}`, ref), nil
	})
	if cfg.ID == "" {
		cfg.ID = "brass-payload"
	}
	env.host = NewHost(cfg, pyl, w, nil)
	t.Cleanup(env.host.Close)
	return env
}

// TestHotEventSharesOneWASFetch is the acceptance check for the payload
// fast path: many viewers of one hot event on one host cost one WAS
// payload resolution; everyone else is served from the cache.
func TestHotEventSharesOneWASFetch(t *testing.T) {
	env := newPayloadEnv(t, HostConfig{})
	ev := pylon.Event{Topic: "/LVC/1", ID: 0x4201, Ref: 99}

	const viewers = 100
	var want []byte
	for i := 0; i < viewers; i++ {
		b, err := env.host.fetchPayload("echo", socialgraph.UserID(1+i%40), ev)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = b
		} else if !bytes.Equal(b, want) {
			t.Fatalf("viewer %d got different payload bytes", i)
		}
	}
	if got := env.resolve.Load(); got != 1 {
		t.Errorf("payload resolved %d times, want 1", got)
	}
	if got := env.was.PayloadFetches.Value(); got != 1 {
		t.Errorf("WAS PayloadFetches = %d, want 1", got)
	}
	if got := env.host.PayloadCacheHits.Value(); got != viewers-1 {
		t.Errorf("PayloadCacheHits = %d, want %d", got, viewers-1)
	}
	if got := env.host.WASFetches.Value(); got != viewers {
		t.Errorf("host WASFetches = %d, want %d (one per stream-level request)", got, viewers)
	}
}

// TestPayloadCachePrivacyPerViewer pins the privacy contract: cached bytes
// never leak to a viewer the privacy check rejects, even on a cache hit.
func TestPayloadCachePrivacyPerViewer(t *testing.T) {
	env := newPayloadEnv(t, HostConfig{})
	const author, blocked, allowed = socialgraph.UserID(3), socialgraph.UserID(4), socialgraph.UserID(5)
	env.graph.Block(blocked, author)
	ev := pylon.Event{Topic: "/LVC/3", ID: 0x4401, Ref: 11, Author: uint64(author)}

	// Warm the cache as an allowed viewer.
	if _, err := env.host.fetchPayload("echo", allowed, ev); err != nil {
		t.Fatal(err)
	}
	// The blocked viewer must be denied even though the bytes are cached.
	if _, err := env.host.fetchPayload("echo", blocked, ev); err == nil {
		t.Fatal("blocked viewer served from payload cache")
	}
	// And another allowed viewer still hits the cache.
	if _, err := env.host.fetchPayload("echo", allowed+1, ev); err != nil {
		t.Fatal(err)
	}
	if got := env.resolve.Load(); got != 1 {
		t.Errorf("payload resolved %d times, want 1", got)
	}
	if env.was.PrivacyDenied.Value() == 0 {
		t.Error("privacy check did not run for the blocked viewer")
	}
}

// TestPayloadCacheDisabled restores the fetch-per-stream behaviour with a
// negative cache size.
func TestPayloadCacheDisabled(t *testing.T) {
	env := newPayloadEnv(t, HostConfig{PayloadCacheSize: -1})
	ev := pylon.Event{Topic: "/LVC/4", ID: 0x4501, Ref: 12}
	for i := 0; i < 5; i++ {
		if _, err := env.host.fetchPayload("echo", socialgraph.UserID(1+i), ev); err != nil {
			t.Fatal(err)
		}
	}
	if got := env.resolve.Load(); got != 5 {
		t.Errorf("payload resolved %d times, want 5 with caching disabled", got)
	}
	if env.host.PayloadCacheHits.Value() != 0 || env.host.CoalescedFetches.Value() != 0 {
		t.Error("cache metrics moved with caching disabled")
	}
}

// TestPayloadCacheDistinctEventsDistinctEntries guards the key: different
// events (ID/Ref) must not alias.
func TestPayloadCacheDistinctEventsDistinctEntries(t *testing.T) {
	env := newPayloadEnv(t, HostConfig{})
	a, err := env.host.fetchPayload("echo", 1, pylon.Event{ID: 1, Ref: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.host.fetchPayload("echo", 1, pylon.Event{ID: 2, Ref: 20})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("distinct events returned identical payloads")
	}
	if got := env.resolve.Load(); got != 2 {
		t.Errorf("payload resolved %d times, want 2", got)
	}
}

// TestFetchIsThePrivacyCheck: a denied Fetch answers false and counts one
// Filtered itself; an allowed one carries the seq it was given and the
// event's trace context.
func TestFetchIsThePrivacyCheck(t *testing.T) {
	env := newPayloadEnv(t, HostConfig{})
	env.graph.Block(7, 9)
	st := &Stream{inst: &Instance{host: env.host, app: &echoApp{}}, Viewer: 7}
	if p, ok := st.Fetch(pylon.Event{ID: 1, Ref: 5, Author: 9, Trace: 3}, 1); ok || p.ok {
		t.Errorf("a blocked author's event was cleared: %+v", p)
	}
	if got := env.host.Filtered.Value(); got != 1 {
		t.Errorf("Filtered = %d after one denial, want 1", got)
	}
	p, ok := st.Fetch(pylon.Event{ID: 2, Ref: 5, Author: 8, Trace: 3}, 42)
	if !ok || p.seq != 42 || p.trace != 3 || string(p.Bytes()) != `{"ref":5}` {
		t.Errorf("allowed Fetch = %+v, %v; want seq 42, trace 3, {\"ref\":5}", p, ok)
	}
	if got := env.host.Filtered.Value(); got != 1 {
		t.Errorf("Filtered = %d after an allowed Fetch, want 1", got)
	}
}
