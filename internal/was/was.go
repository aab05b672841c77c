// Package was implements the Web Application Server tier (paper §3, Figs
// 3–5). The WAS is the only component that touches the social graph
// directly: it executes GraphQL-style queries and mutations against TAO,
// publishes update events (metadata only) to Pylon as mutations commit, and
// performs the privacy checks required before any payload is released to a
// device — BRASSes must call back into the WAS for every update they push.
package was

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bladerunner/internal/metrics"
	"bladerunner/internal/pylon"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/trace"
)

// Errors returned by the executor.
var (
	ErrUnknownField = errors.New("was: unknown field")
	ErrDenied       = errors.New("was: privacy check denied")
	ErrUnknownUser  = errors.New("was: unknown user") // a viewer id is input: never a panic
)

// Ctx is handed to resolvers, by value: it bundles the server's dependencies
// plus the identity the operation runs as.
type Ctx struct {
	Srv    *Server
	Viewer socialgraph.UserID // 0 for system operations
	Now    time.Time
	// Region is the datacenter region the operation executes in: reads via
	// Reader() are served by that region's TAO follower (with its modeled
	// replication lag) and publishes via Publish() carry it as the event
	// origin. Empty means the primary region / the leader tier.
	Region string
}

// Reader returns the TAO read surface for the context's region: the
// region-local follower when one is registered, else the leader Store.
// Writes never go through here — resolvers mutate ctx.Srv.TAO directly.
func (c Ctx) Reader() tao.Reader { return c.Srv.reader(c.Region) }

// User returns the graph record of the user the operation runs as. The
// system viewer (0) has none: a resolver that reads the viewer's place in
// the graph answers ErrUnknownUser for it.
func (c Ctx) User() (socialgraph.User, error) {
	if c.Viewer == 0 {
		return socialgraph.User{}, fmt.Errorf("%w: the system viewer", ErrUnknownUser)
	}
	return c.Srv.Graph.User(c.Viewer), nil
}

// Publish emits an update event stamped with the context's region as its
// origin, so the region plane replicates it outward from where the
// mutation committed.
func (c Ctx) Publish(ev pylon.Event, rank bool) {
	if ev.Origin == "" {
		ev.Origin = c.Region
	}
	c.Srv.Publish(ev, rank)
}

// Publisher is the sink Publish hands events to. A bare *pylon.Service is
// the single-region configuration; the region plane implements Publisher to
// fan events out across regional Pylon clusters with replication lag.
type Publisher interface {
	Publish(ev pylon.Event) (int, error)
}

// FieldFunc resolves a query or applies a mutation and returns its answer,
// encoded by the resolver as PayloadFunc encodes its payload.
type FieldFunc func(ctx Ctx, call FieldCall) ([]byte, error)

// SubscriptionFunc resolves a subscription expression to the concrete Pylon
// topics it maps to (step 5 of Fig 3). Most subscriptions map to one topic;
// ActiveStatus-style subscriptions map a single device subscribe to one
// topic per friend. The returned slice is read-only: a resolver may hand the
// same list to every subscribe that names the same object.
type SubscriptionFunc func(ctx Ctx, call FieldCall) ([]pylon.Topic, error)

// PayloadFunc encodes the device-facing payload for an update event after
// the privacy check passed; the bytes go out as they are, unboxed (apps'
// AppendJSON). ref is the TAO object the event points to.
type PayloadFunc func(ctx Ctx, ref tao.ObjID, ev pylon.Event) ([]byte, error)

// Server is one WAS. It is safe for concurrent use.
type Server struct {
	TAO   *tao.Store
	Graph *socialgraph.Graph
	Pylon *pylon.Service
	Sched sim.Scheduler

	// Fanout, when set, receives published events instead of Pylon — the
	// region plane's cross-region publish path. nil keeps the direct
	// single-Pylon publish.
	Fanout Publisher

	// RankDelay models the ML comment-quality ranking latency incurred
	// before publishing rankable updates (Table 3: 1,790 ms of the LVC
	// 2,000 ms update→publish time is ranking). Nil disables the delay.
	RankDelay sim.Dist

	// Sampler stamps trace contexts onto mutations at publish time; nil
	// disables sampling. The WAS is where traces are born — every later
	// hop only propagates the ID the sampler issued here.
	Sampler *trace.Sampler
	// Tracer closes the root was.publish span plus the per-fetch
	// was.privacy / was.resolve spans. nil disables span collection.
	Tracer *trace.Tracer

	// tables is published copy-on-write: a call reads it with one atomic
	// load, a registration (legal at any time) swaps in a copy.
	tables atomic.Pointer[tables]

	mu  sync.Mutex // guards rng
	rng rngSource

	// Metrics.
	Queries          metrics.Counter
	Mutations        metrics.Counter
	Subscriptions    metrics.Counter
	PayloadFetches   metrics.Counter
	PrivacyChecks    metrics.Counter
	PrivacyDenied    metrics.Counter
	PublishLatency   *metrics.Histogram[time.Duration] // mutation commit → publish sent
	PublishesEmitted metrics.Counter
}

// tables is one immutable generation of what registration fills.
type tables struct {
	queries       map[string]FieldFunc
	mutations     map[string]FieldFunc
	subscriptions map[string]SubscriptionFunc
	payloads      map[string]PayloadFunc
	readers       map[string]tao.Reader
}

// with returns a copy of m that maps k to v.
func with[V any](m map[string]V, k string, v V) map[string]V {
	out := make(map[string]V, len(m)+1)
	for mk, mv := range m {
		out[mk] = mv
	}
	out[k] = v
	return out
}

// register publishes a copy of the current tables that set has changed.
func (s *Server) register(set func(*tables)) {
	for {
		old := s.tables.Load()
		next := *old
		set(&next)
		if s.tables.CompareAndSwap(old, &next) {
			return
		}
	}
}

// rngSource is a tiny deterministic PRNG used for sampling rank delays
// without importing math/rand state that tests would have to seed.
type rngSource struct{ s uint64 }

func (r *rngSource) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// New builds a WAS over the given substrates.
func New(store *tao.Store, graph *socialgraph.Graph, pyl *pylon.Service, sched sim.Scheduler) *Server {
	if sched == nil {
		sched = sim.RealClock{}
	}
	s := &Server{
		TAO:            store,
		Graph:          graph,
		Pylon:          pyl,
		Sched:          sched,
		rng:            rngSource{s: 0x9E3779B97F4A7C15},
		PublishLatency: metrics.NewHistogram[time.Duration](),
	}
	s.tables.Store(new(tables))
	return s
}

// RegisterQuery installs a read resolver.
func (s *Server) RegisterQuery(name string, fn FieldFunc) {
	s.register(func(t *tables) { t.queries = with(t.queries, name, fn) })
}

// RegisterMutation installs a write resolver.
func (s *Server) RegisterMutation(name string, fn FieldFunc) {
	s.register(func(t *tables) { t.mutations = with(t.mutations, name, fn) })
}

// RegisterSubscription installs a subscription-to-topic resolver.
func (s *Server) RegisterSubscription(name string, fn SubscriptionFunc) {
	s.register(func(t *tables) { t.subscriptions = with(t.subscriptions, name, fn) })
}

// RegisterPayload installs a payload resolver for an application name.
func (s *Server) RegisterPayload(app string, fn PayloadFunc) {
	s.register(func(t *tables) { t.payloads = with(t.payloads, app, fn) })
}

func (s *Server) ctxIn(viewer socialgraph.UserID, region string) Ctx {
	return Ctx{Srv: s, Viewer: viewer, Now: s.Sched.Now(), Region: region}
}

// RegisterReader installs a region-local TAO read replica. Resolvers
// running in that region (QueryIn, ResolvePayloadIn) read through it via
// Ctx.Reader; regions without a registered reader fall back to the leader.
func (s *Server) RegisterReader(region string, r tao.Reader) {
	s.register(func(t *tables) { t.readers = with(t.readers, region, r) })
}

// reader returns region's read replica, or the leader when none is
// registered (including the single-region configuration).
func (s *Server) reader(region string) tao.Reader {
	if r := s.tables.Load().readers[region]; r != nil {
		return r
	}
	return s.TAO
}

// Query executes a read expression as viewer and returns the answer its
// resolver encoded.
func (s *Server) Query(viewer socialgraph.UserID, expr string) ([]byte, error) {
	return s.QueryIn("", viewer, expr)
}

// QueryIn is Query executing in a datacenter region: resolver reads go to
// that region's TAO follower.
func (s *Server) QueryIn(region string, viewer socialgraph.UserID, expr string) ([]byte, error) {
	return run(s, s.tables.Load().queries, "query", &s.Queries, region, viewer, expr)
}

// Mutate executes a write expression as viewer.
func (s *Server) Mutate(viewer socialgraph.UserID, expr string) ([]byte, error) {
	return s.MutateIn("", viewer, expr)
}

// MutateIn is Mutate executing in a datacenter region: writes still commit
// on the TAO leader, but events the resolver publishes via Ctx.Publish
// carry the region as their origin, which is where the region plane's
// cross-region replication starts.
func (s *Server) MutateIn(region string, viewer socialgraph.UserID, expr string) ([]byte, error) {
	return run(s, s.tables.Load().mutations, "mutation", &s.Mutations, region, viewer, expr)
}

// ResolveSubscription maps a device subscription expression to concrete
// Pylon topics (BRASS calls this while instantiating a stream).
func (s *Server) ResolveSubscription(viewer socialgraph.UserID, expr string) ([]pylon.Topic, error) {
	return run(s, s.tables.Load().subscriptions, "subscription", &s.Subscriptions, "", viewer, expr)
}

// run parses expr, looks its field up in fns and calls the resolver as
// viewer in region. Every query, mutation and subscription enters here, so
// this is where a viewer the graph does not know is refused, by the range
// rule PrivacyCheck applies, before any resolver is handed it.
func run[R any, F ~func(Ctx, FieldCall) (R, error)](s *Server, fns map[string]F, kind string,
	calls *metrics.Counter, region string, viewer socialgraph.UserID, expr string) (none R, err error) {
	call, err := ParseField(expr)
	if err != nil {
		return none, err
	}
	fn, ok := fns[call.Name]
	if !ok {
		return none, fmt.Errorf("%w: %s %q", ErrUnknownField, kind, call.Name)
	}
	if viewer > socialgraph.UserID(s.Graph.NumUsers()) {
		return none, fmt.Errorf("%w: viewer %d", ErrUnknownUser, viewer)
	}
	calls.Inc()
	return fn(s.ctxIn(viewer, region), call)
}

// PrivacyCheck reports whether viewer may see content authored by author.
// In the paper's environment these checks are complex and only ever run
// inside the WAS; every update pushed to a device passes through here. A
// user the graph does not know (ids arrive over ctrl) is denied.
func (s *Server) PrivacyCheck(viewer, author socialgraph.UserID) bool {
	s.PrivacyChecks.Inc()
	if viewer == 0 || author == 0 {
		return true
	}
	if n := socialgraph.UserID(s.Graph.NumUsers()); viewer > n || author > n ||
		s.Graph.Blocks(viewer, author) || s.Graph.Blocks(author, viewer) {
		s.PrivacyDenied.Inc()
		return false
	}
	return true
}

// FetchPayloadIn is the BRASS→WAS callback (step 8 of Fig 5): it privacy-
// checks the event's author against the viewer, then resolves the payload
// via the application's registered PayloadFunc — a TAO point query with
// good caching characteristics, served from region's follower so the fetch
// a regional BRASS host issues stays region-local.
//
// The two halves are exposed separately as CheckEventVisibility and
// ResolvePayloadIn so a BRASS host fanning one hot event out to many viewers
// can run the mandatory per-viewer privacy check per stream while sharing a
// single TAO read for the payload bytes.
func (s *Server) FetchPayloadIn(region, app string, viewer socialgraph.UserID, ev pylon.Event) ([]byte, error) {
	if err := s.CheckEventVisibility(viewer, ev); err != nil {
		return nil, err
	}
	return s.ResolvePayloadIn(region, app, ev)
}

// CheckEventVisibility runs the privacy check gating the release of ev's
// payload to viewer: the event's author (when it has one) is checked against
// the viewer. It returns ErrDenied when the viewer must not see the update.
// This must run once per viewer — payload bytes may be shared, visibility
// decisions may not.
func (s *Server) CheckEventVisibility(viewer socialgraph.UserID, ev pylon.Event) error {
	sp := s.Tracer.Start(ev.Trace, trace.HopPrivacy, trace.HopFetch)
	defer sp.End()
	sp.AnnotateInt("viewer", int64(viewer))
	if ev.Author != 0 && !s.PrivacyCheck(viewer, socialgraph.UserID(ev.Author)) {
		sp.Annotate("denied", "blocked")
		return fmt.Errorf("%w: viewer %d vs author %d", ErrDenied, viewer, ev.Author)
	}
	return nil
}

// ResolvePayloadIn resolves an event's payload bytes via the application's
// registered PayloadFunc — the TAO read half of FetchPayloadIn, served from
// region's follower and independent of any viewer (the resolver runs in the
// system context), whose bytes it returns as they are. Callers must have
// already passed CheckEventVisibility for each viewer the bytes go to.
func (s *Server) ResolvePayloadIn(region, app string, ev pylon.Event) ([]byte, error) {
	sp := s.Tracer.Start(ev.Trace, trace.HopResolve, trace.HopFetch)
	defer sp.End()
	sp.Annotate("app", app)
	s.PayloadFetches.Inc()
	fn := s.tables.Load().payloads[app]
	if fn == nil {
		return nil, fmt.Errorf("%w: payload for app %q", ErrUnknownField, app)
	}
	return fn(s.ctxIn(0, region), tao.ObjID(ev.Ref), ev)
}

// Publish emits an update event to Pylon on behalf of a mutation. When
// rank is true the event is held for a sampled ranking delay first (LVC
// pre-ranks comments before publishing; Table 3). The publish latency is
// recorded either way.
func (s *Server) Publish(ev pylon.Event, rank bool) {
	start := s.Sched.Now()
	if ev.Trace == 0 {
		ev.Trace = s.Sampler.Trace()
	}
	// Root span: mutation commit (Publish call) until the event is handed
	// to Pylon, including any ranking hold. Ends inside emit, so the
	// ranked path's scheduler hop stays inside the span.
	sp := s.Tracer.Start(ev.Trace, trace.HopPublish, "")
	sp.Annotate("topic", string(ev.Topic))
	if rank && s.RankDelay != nil {
		sp.Annotate("ranked", "true")
		s.mu.Lock()
		// Sample with a throwaway rand source seeded from the xorshift
		// stream so publishes stay deterministic under the sim engine.
		d := s.RankDelay.Sample(newRand(s.rng.next()))
		s.mu.Unlock()
		ev, sp := ev, sp // the closure's own copies: only a ranked publish pays for them
		s.Sched.After(d, func() { s.emit(ev, start, sp) })
		return
	}
	s.emit(ev, start, sp)
}

func (s *Server) emit(ev pylon.Event, start time.Time, sp trace.Span) {
	ev.Published = s.Sched.Now()
	if s.Fanout != nil {
		_, _ = s.Fanout.Publish(ev)
	} else if s.Pylon != nil {
		_, _ = s.Pylon.Publish(ev)
	}
	s.PublishesEmitted.Inc()
	s.PublishLatency.Observe(s.Sched.Now().Sub(start))
	sp.End()
}
