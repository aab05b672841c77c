package brass

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// payloadEnv builds a host whose WAS counts payload resolutions, and the
// instance of an app named "echo" on it that the tests fetch through.
type payloadEnv struct {
	host    *Host
	inst    *Instance
	was     *was.Server
	graph   *socialgraph.Graph
	resolve *atomic.Int64 // PayloadFunc invocations
}

func newPayloadEnv(t *testing.T) *payloadEnv {
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
	env.host = NewHost(HostConfig{ID: "brass-payload"}, pyl, w, nil)
	t.Cleanup(env.host.Close)
	env.inst = env.instance(t, "echo")
	return env
}

// instance spools up the instance of a do-nothing app named name.
func (env *payloadEnv) instance(t *testing.T, name string) *Instance {
	t.Helper()
	env.host.RegisterApp(payloadApp(name))
	inst, err := env.host.Instance(name)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// payloadApp is an application, and its own instance, that does nothing:
// the tests call its instance's fetchPayload themselves.
type payloadApp string

func (a payloadApp) Name() string                     { return string(a) }
func (a payloadApp) NewInstance(*Runtime) AppInstance { return a }
func (payloadApp) OnStreamOpen(*Stream) error         { return nil }
func (payloadApp) OnStreamClose(*Stream, string)      {}
func (payloadApp) OnEvent(pylon.Event)                {}

// TestHotEventSharesOneWASFetch is the acceptance check for the payload
// fast path: many viewers of one hot event on one host cost one WAS
// payload resolution; everyone else is served from the cache.
func TestHotEventSharesOneWASFetch(t *testing.T) {
	env := newPayloadEnv(t)
	ev := pylon.Event{Topic: "/LVC/1", ID: 0x4201, Ref: 99}

	const viewers = 100
	var want []byte
	for i := 0; i < viewers; i++ {
		b, err := env.inst.fetchPayload(socialgraph.UserID(1+i%40), ev)
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
	env := newPayloadEnv(t)
	const author, blocked, allowed = socialgraph.UserID(3), socialgraph.UserID(4), socialgraph.UserID(5)
	env.graph.Block(blocked, author)
	ev := pylon.Event{Topic: "/LVC/3", ID: 0x4401, Ref: 11, Author: uint64(author)}

	// Warm the cache as an allowed viewer.
	if _, err := env.inst.fetchPayload(allowed, ev); err != nil {
		t.Fatal(err)
	}
	// The blocked viewer must be denied even though the bytes are cached.
	if _, err := env.inst.fetchPayload(blocked, ev); err == nil {
		t.Fatal("blocked viewer served from payload cache")
	}
	// And another allowed viewer still hits the cache.
	if _, err := env.inst.fetchPayload(allowed+1, ev); err != nil {
		t.Fatal(err)
	}
	if got := env.resolve.Load(); got != 1 {
		t.Errorf("payload resolved %d times, want 1", got)
	}
	if env.was.PrivacyDenied.Value() == 0 {
		t.Error("privacy check did not run for the blocked viewer")
	}
}

// TestPayloadCacheDistinctEventsDistinctEntries guards the key: different
// events (ID/Ref) must not alias.
func TestPayloadCacheDistinctEventsDistinctEntries(t *testing.T) {
	env := newPayloadEnv(t)
	a, err := env.inst.fetchPayload(1, pylon.Event{ID: 1, Ref: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.inst.fetchPayload(1, pylon.Event{ID: 2, Ref: 20})
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

// TestPayloadCacheHitsAcrossInterleavedEvents: a hot event's first and last
// viewers on a host with 63 other events fetched between them still share
// one resolution, so one event's fan-out may interleave with 63 others.
func TestPayloadCacheHitsAcrossInterleavedEvents(t *testing.T) {
	env := newPayloadEnv(t)
	fetch := func(viewer socialgraph.UserID, ev pylon.Event) {
		t.Helper()
		if _, err := env.inst.fetchPayload(viewer, ev); err != nil {
			t.Fatal(err)
		}
	}
	hot := pylon.Event{ID: 1 << 20, Ref: 7}
	fetch(1, hot)
	for id := uint64(1); id <= 63; id++ {
		fetch(2, pylon.Event{ID: id, Ref: 100 + id})
	}
	fetch(3, hot)
	if got := env.resolve.Load(); got != 64 {
		t.Errorf("payload resolved %d times, want 64: the hot event once, each other event once", got)
	}
	if got := env.host.PayloadCacheHits.Value(); got != 1 {
		t.Errorf("PayloadCacheHits = %d, want 1: the hot event's last viewer", got)
	}
}

// TestPayloadCacheHoldsAFanoutNotAHistory: 10 000 distinct events, each
// fetched by one viewer, leave live no more than the cache's 64 entries and
// their payloads — HeapAlloc after two GCs, before and after the events.
func TestPayloadCacheHoldsAFanoutNotAHistory(t *testing.T) {
	const events = 10000
	env := newPayloadEnv(t)
	fetch := func(id uint64) {
		if _, err := env.inst.fetchPayload(1, pylon.Event{ID: id, Ref: id}); err != nil {
			t.Fatal(err)
		}
	}
	fetch(0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for id := uint64(1); id <= events; id++ {
		fetch(id)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(env)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d events left %d B live", events, grew)
	// ~9 KB: 63 new entries, each an 80-byte slot and a 16-byte payload,
	// and the map's cells, which grow under evict-and-insert churn. A
	// 1 024-entry cache leaves ~213 KB.
	if limit := int64(payloadCacheSize * 512); grew > limit {
		t.Errorf("%d distinct events left %d B live, want <= %d: %d entries of 512 B", events, grew, limit, payloadCacheSize)
	}
	if got := env.resolve.Load(); got != events+1 {
		t.Errorf("payload resolved %d times, want %d", got, events+1)
	}
}

// TestPayloadCacheIsPerApp: one app's distinct events never evict another
// app's entry on the same host. A hot event fetched before and after 10 000
// distinct events of a second app resolves once.
func TestPayloadCacheIsPerApp(t *testing.T) {
	env := newPayloadEnv(t)
	other := env.instance(t, "echo-b")
	env.was.RegisterPayload("echo-b", func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) ([]byte, error) {
		return nil, nil
	})
	hot := pylon.Event{ID: 1 << 20, Ref: 7}
	for round := 0; round < 2; round++ {
		if _, err := env.inst.fetchPayload(1, hot); err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= 5000; id++ {
			if _, err := other.fetchPayload(2, pylon.Event{ID: id + uint64(round)*5000, Ref: id}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := env.resolve.Load(); got != 1 {
		t.Errorf("the hot event resolved %d times around another app's 10 000 events, want 1", got)
	}
}

// TestPayloadCacheConcurrentApps: two apps' instances on one host fetch a
// hot event and a stream of distinct events at once, as their two loops
// would, under keys that are the same in both apps, while each full cache
// evicts into the slots it reads; every fetch answers its own app's bytes.
func TestPayloadCacheConcurrentApps(t *testing.T) {
	env := newPayloadEnv(t)
	apps := []string{"echo-a", "echo-b"}
	n := 2000
	if testing.Short() {
		n = 500
	}
	var wg sync.WaitGroup
	for _, app := range apps {
		env.was.RegisterPayload(app, func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) ([]byte, error) {
			return fmt.Appendf(nil, `{"app":%q,"id":%d,"ref":%d}`, app, ev.ID, ref), nil
		})
		inst := env.instance(t, app)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= n; i++ {
				for _, ev := range []pylon.Event{{ID: 1, Ref: 1}, {ID: uint64(i + 1), Ref: uint64(i)}} {
					b, err := inst.fetchPayload(socialgraph.UserID(1+i%40), ev)
					if want := fmt.Sprintf(`{"app":%q,"id":%d,"ref":%d}`, app, ev.ID, ev.Ref); err != nil || string(b) != want {
						t.Errorf("%s fetched %q, %v for event %d; want %s", app, b, err, ev.ID, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got, want := env.host.PayloadCacheHits.Value(), int64(len(apps)*(n-1)); got != want {
		t.Errorf("PayloadCacheHits = %d, want %d: each app's hot event after its first fetch", got, want)
	}
}

// TestFetchIsThePrivacyCheck: a denied Fetch answers false and counts one
// Filtered itself; an allowed one carries the seq it was given and the
// event's trace context.
func TestFetchIsThePrivacyCheck(t *testing.T) {
	env := newPayloadEnv(t)
	env.graph.Block(7, 9)
	st := &Stream{inst: env.inst, Viewer: 7}
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
