// Package pylon implements Pylon, Bladerunner's deliberately simple
// topic-based pub/sub system (paper §3.1). Pylon has exactly two jobs:
// track which BRASS hosts subscribe to each topic, and fan published update
// events out to those hosts with low latency.
//
// Key properties reproduced from the paper:
//
//   - Subscription state lives in a replicated KV store (internal/kvstore):
//     rendezvous hashing on the topic picks the replicas, one local and the
//     rest in remote regions. Subscription writes are CP (quorum required);
//     delivery is AP (best effort, no guarantees on failure).
//   - On publish, Pylon begins fan-out as soon as the first replica answers
//     with a subscriber list; when the remaining replicas answer, it
//     forwards to any subscribers the first list was missing, and patches
//     replicas that disagree back to a quorum-merged view.
//   - Topics are partitioned across shards mapped onto Pylon servers so
//     load can be rebalanced one shard at a time.
//   - Pylon is content-agnostic: events carry metadata identifying the
//     mutation in TAO, never the data itself (paper §1, unique aspect 3).
//
// Hot-topic fast path: the marquee workload (LiveVideoComments) publishes
// thousands of events to one topic whose subscriber set barely changes, so
// the publish path keeps a versioned subscriber-set cache. Every
// subscription mutation bumps a per-shard version counter; Publish serves
// fan-out from the cache while the version matches (and the TTL holds) and
// falls back to the full staged replica read — first responder, patch
// forward, replica repair — on any version change. Host registry and
// shard→server routing are copy-on-write snapshots, and event-ID assignment
// is striped, so publishes to distinct shards never contend on a lock.
package pylon

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bladerunner/internal/cache"
	"bladerunner/internal/intern"
	"bladerunner/internal/kvstore"
	"bladerunner/internal/metrics"
	"bladerunner/internal/overload"
	"bladerunner/internal/sim"
	"bladerunner/internal/trace"
)

// Topic names an area of interest in the social graph, structured like a
// path: /LVC/videoID, /TI/threadID/uid, /Status/uid.
type Topic string

// Event is a published update event: metadata only, pointing at the data in
// TAO. BRASSes fetch the payload from the WAS when (and only when) they
// decide a client should see it.
type Event struct {
	Topic Topic
	// ID is a unique event id assigned by Pylon at publish time. IDs are
	// unique across all topics and monotonic per shard stripe; they carry
	// no global ordering.
	ID uint64
	// Ref identifies the mutated object in TAO (e.g. the comment id).
	Ref uint64
	// Seq is an optional application-assigned sequence number (used by
	// Messenger-style reliable applications).
	Seq uint64
	// Author is the uid whose action the event reports (0 = none): the one
	// piece of metadata the system itself reads, for the privacy check.
	Author uint64
	// Meta is private to the application that published it (ML quality
	// score, language, ...): nothing else reads a key. Small by design, nil
	// when the app has nothing to say; cross-region links are limited.
	Meta map[string]string
	// Published is the publish timestamp.
	Published time.Time
	// Origin is the datacenter region the mutation committed in. The
	// region plane fans the event out to its origin region's Pylon
	// synchronously and replicates it to every other region over the
	// modeled inter-region links; empty means the primary region.
	Origin string
	// Trace is the sampled trace context stamped by the WAS (zero when the
	// mutation was not sampled). Pylon and BRASS propagate it unchanged.
	Trace trace.ID
}

// Subscriber is the delivery endpoint for one BRASS host. Deliver must not
// block: Pylon is best-effort, and a slow host must not stall fan-out.
type Subscriber interface {
	ID() string
	Deliver(ev Event)
}

// ErrNoQuorum mirrors kvstore.ErrNoQuorum for subscription writes.
var ErrNoQuorum = kvstore.ErrNoQuorum

// ErrUnknownSubscriber is returned when subscribing an unregistered host.
var ErrUnknownSubscriber = errors.New("pylon: unknown subscriber host")

// eventStripes is the number of independent event-ID counters. Publish
// picks the stripe by shard, so concurrent publishes to different shards
// assign IDs without sharing a cache line. IDs embed the stripe in the low
// byte (ID = seq<<8 | stripe), which keeps them unique across stripes.
const eventStripes = 256

// Config parameterizes the Pylon service.
type Config struct {
	// Shards is the number of topic shards (production: 512K). Shards
	// map onto servers for load accounting.
	Shards int
	// Servers is the number of Pylon front-end servers.
	Servers int
	// SubCacheSize is the capacity (in topics) of the versioned
	// subscriber-set cache on the publish path. 0 disables the cache and
	// restores the read-every-publish behaviour.
	SubCacheSize int
	// SubCacheTTL bounds how long a cached subscriber set may be served
	// without re-reading the replicas even when no version change was
	// observed — the periodic-refresh half of the invalidation contract.
	// <= 0 means entries never expire by age.
	SubCacheTTL time.Duration
	// Clock drives cache TTL expiry and admission-token refill. nil uses
	// the wall clock.
	Clock sim.Clock
	// AdmitRate, when > 0, enables token-bucket admission control on the
	// publish path: sustained publishes beyond this rate (with AdmitBurst
	// of headroom) are shed with ErrShed BEFORE any replica read or
	// fan-out work — the paper's "shed at every hop" applied to Pylon's
	// front door. <= 0 disables admission entirely.
	AdmitRate float64
	// AdmitBurst is the admission bucket capacity (defaults to AdmitRate
	// when 0, i.e. one second of headroom).
	AdmitBurst float64
	// AdmitSeed jitters the initial token level so a fleet of Pylon
	// servers decorrelates deterministically.
	AdmitSeed int64
}

// DefaultConfig returns a test-scale configuration with the subscriber
// cache enabled.
func DefaultConfig() Config {
	return Config{
		Shards:       4096,
		Servers:      8,
		SubCacheSize: 4096,
		SubCacheTTL:  2 * time.Second,
	}
}

// padded is a cache-line-padded atomic counter; slices of these are updated
// from concurrent publishes without false sharing.
type padded struct {
	v atomic.Int64
	_ [56]byte
}

// routeTable is the immutable shard→server routing state, swapped
// atomically as a whole so the publish path reads it without locking.
type routeTable struct {
	up       []bool
	override map[int]int // explicit shard→server reassignments (MoveShard)
	anyUp    bool
}

func (rt *routeTable) serverFor(shard, servers int) int {
	if srv, ok := rt.override[shard]; ok {
		return srv
	}
	return shard % servers
}

func (rt *routeTable) clone() *routeTable {
	n := &routeTable{
		up:       append([]bool(nil), rt.up...),
		override: make(map[int]int, len(rt.override)),
	}
	for k, v := range rt.override {
		n.override[k] = v
	}
	return n
}

func (rt *routeTable) recomputeAnyUp() {
	rt.anyUp = false
	for _, up := range rt.up {
		if up {
			rt.anyUp = true
			return
		}
	}
}

// subEntry is one cached subscriber set: the quorum-merged member list as
// of version ver of the topic's shard, resolved to interned host handles at
// fill time. The fan-out loop then indexes the dense COW dispatch slice
// directly — no per-delivery map lookup, no Member→string conversion.
type subEntry struct {
	ver     uint64
	handles []uint32
}

// Service is the Pylon control plane plus fan-out data plane.
type Service struct {
	cfg Config
	kv  *kvstore.Cluster

	// hosts is the copy-on-write registry of known BRASS hosts; the
	// publish path snapshots it once per fan-out. wmu serializes writers
	// (RegisterHost/RemoveHost and the route-table mutators); readers
	// never take it.
	hosts atomic.Pointer[map[string]Subscriber]
	route atomic.Pointer[routeTable]
	// hostIDs interns BRASS host IDs to dense handles; hostSlots is the
	// matching copy-on-write handle→Subscriber dispatch slice the cached
	// fan-out path indexes instead of hashing host-ID strings. A removed
	// host's slot is nil'd (same wmu-serialized COW discipline as hosts),
	// and re-registration under the same ID reuses the same handle.
	hostIDs   *intern.Table
	hostSlots atomic.Pointer[[]Subscriber]
	wmu       sync.Mutex
	// hostTopics is the reverse index used when a BRASS host fails and
	// all its subscriptions must be removed (paper §4 axiom 1). Guarded
	// by wmu.
	hostTopics map[string]map[Topic]bool

	serverLoad []padded
	eventSeq   []padded // striped event-ID counters

	// shardVer is the per-shard subscription version; every mutation of a
	// topic's subscriber set bumps its shard AFTER the KV write completes,
	// so a publisher that observes the new version is guaranteed to read
	// the new subscriber state. subCache is nil when disabled.
	shardVer []atomic.Uint64
	subCache *cache.LRU[Topic, subEntry]

	// Admit is the publish admission controller (nil when disabled). Its
	// Admitted/Shed counters are the publish-side overload accounting.
	Admit *overload.Admission

	// Metrics.
	Publishes     metrics.Counter
	Deliveries    metrics.Counter
	PatchForwards metrics.Counter // deliveries triggered by late replicas
	Patches       metrics.Counter // replica repair operations
	DroppedNoSub  metrics.Counter // publishes with zero subscribers
	SubCacheHits  metrics.Counter // fan-outs served from the cache
	SubCacheMiss  metrics.Counter // cold or TTL-expired lookups
	SubCacheStale metrics.Counter // entries invalidated by a version bump
	FanoutSize    *metrics.Histogram[int64]

	// Tracer, when set, closes a pylon.fanout span around each sampled
	// publish. nil (the default) keeps the publish path allocation-free.
	Tracer *trace.Tracer
}

// New builds a Pylon service over the given subscription KV cluster.
func New(cfg Config, kv *kvstore.Cluster) (*Service, error) {
	if cfg.Shards <= 0 || cfg.Servers <= 0 {
		return nil, fmt.Errorf("pylon: invalid config %+v", cfg)
	}
	if kv == nil {
		return nil, errors.New("pylon: nil kv cluster")
	}
	s := &Service{
		cfg:        cfg,
		kv:         kv,
		hostTopics: make(map[string]map[Topic]bool),
		serverLoad: make([]padded, cfg.Servers),
		eventSeq:   make([]padded, eventStripes),
		shardVer:   make([]atomic.Uint64, cfg.Shards),
		hostIDs:    intern.New(),
		FanoutSize: metrics.NewHistogram[int64](),
	}
	hosts := make(map[string]Subscriber)
	s.hosts.Store(&hosts)
	slots := make([]Subscriber, 1) // slot 0 = intern.None
	s.hostSlots.Store(&slots)
	rt := &routeTable{up: make([]bool, cfg.Servers), anyUp: true}
	for i := range rt.up {
		rt.up[i] = true
	}
	s.route.Store(rt)
	if cfg.SubCacheSize > 0 {
		// Jittered TTLs decorrelate the periodic refresh across hot
		// topics; the seed is fixed so runs stay reproducible.
		s.subCache = cache.NewLRU[Topic, subEntry](
			cfg.SubCacheSize, cfg.SubCacheTTL, 0.25, cfg.Clock, 0x0b1ade)
	}
	burst := cfg.AdmitBurst
	if burst == 0 {
		burst = cfg.AdmitRate
	}
	s.Admit = overload.NewAdmission(cfg.AdmitRate, burst, cfg.Clock, cfg.AdmitSeed)
	return s, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, kv *kvstore.Cluster) *Service {
	s, err := New(cfg, kv)
	if err != nil {
		panic(err)
	}
	return s
}

// RegisterHost makes a BRASS host known to Pylon so subscriptions can be
// delivered to it.
func (s *Service) RegisterHost(sub Subscriber) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	old := *s.hosts.Load()
	hosts := make(map[string]Subscriber, len(old)+1)
	for k, v := range old {
		hosts[k] = v
	}
	hosts[sub.ID()] = sub
	s.hosts.Store(&hosts)
	h := s.hostIDs.Intern(sub.ID())
	oldSlots := *s.hostSlots.Load()
	n := len(oldSlots)
	if int(h) >= n {
		n = int(h) + 1
	}
	slots := make([]Subscriber, n)
	copy(slots, oldSlots)
	slots[h] = sub
	s.hostSlots.Store(&slots)
	if s.hostTopics[sub.ID()] == nil {
		s.hostTopics[sub.ID()] = make(map[Topic]bool)
	}
}

// Shard returns the topic's shard index.
func (s *Service) Shard(t Topic) int {
	return int(fnv64(string(t)) % uint64(s.cfg.Shards))
}

// ServerFor returns the index of the Pylon server owning the topic's
// shard, honoring any rebalancing overrides.
func (s *Service) ServerFor(t Topic) int {
	return s.route.Load().serverFor(s.Shard(t), s.cfg.Servers)
}

// SetServerUp marks a Pylon front-end up or down (failure injection).
func (s *Service) SetServerUp(i int, up bool) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	rt := s.route.Load().clone()
	rt.up[i] = up
	rt.recomputeAnyUp()
	s.route.Store(rt)
}

// ErrUnavailable is returned when no Pylon front end is reachable.
var ErrUnavailable = errors.New("pylon: no server available")

// ErrShed is returned by Publish when the admission controller sheds the
// event: the front end is over its configured rate and drops work at the
// door instead of queueing unboundedly. Best-effort publishers treat it
// like any other delivery failure.
var ErrShed = errors.New("pylon: publish shed by admission control")

// bumpShard advances a shard's subscription version, invalidating every
// cached subscriber set in the shard. Callers bump after the KV write so a
// publisher that loads the new version always reads post-write state.
func (s *Service) bumpShard(shard int) {
	s.shardVer[shard].Add(1)
}

// Subscribe registers hostID for topic. The write is CP: it fails without a
// KV quorum, in which case the caller (the BRASS subscription manager)
// retries against another replica set or surfaces the failure.
func (s *Service) Subscribe(topic Topic, hostID string) error {
	shard := s.Shard(topic)
	if _, known := (*s.hosts.Load())[hostID]; !known {
		return fmt.Errorf("%w: %q", ErrUnknownSubscriber, hostID)
	}
	rt := s.route.Load()
	if !rt.up[rt.serverFor(shard, s.cfg.Servers)] && !rt.anyUp {
		return ErrUnavailable
	}
	if _, err := s.kv.SetAdd(string(topic), kvstore.Member(hostID)); err != nil {
		return fmt.Errorf("pylon: subscribe %q: %w", topic, err)
	}
	s.wmu.Lock()
	// The host may have been concurrently removed; in that case its KV
	// entries are being torn down by RemoveHost and we must not resurrect
	// the reverse-index entry.
	if m := s.hostTopics[hostID]; m != nil {
		m[topic] = true
	}
	s.wmu.Unlock()
	s.bumpShard(shard)
	return nil
}

// Unsubscribe removes hostID's subscription to topic.
func (s *Service) Unsubscribe(topic Topic, hostID string) error {
	if _, err := s.kv.SetRemove(string(topic), kvstore.Member(hostID)); err != nil {
		return fmt.Errorf("pylon: unsubscribe %q: %w", topic, err)
	}
	s.wmu.Lock()
	if m := s.hostTopics[hostID]; m != nil {
		delete(m, topic)
	}
	s.wmu.Unlock()
	s.bumpShard(s.Shard(topic))
	return nil
}

// RemoveHost drops every subscription held by hostID — invoked when Pylon
// detects a BRASS host failure. The host leaves the delivery snapshot
// immediately: even a publish served from a cached subscriber set that
// still lists the host cannot deliver to it after RemoveHost returns.
func (s *Service) RemoveHost(hostID string) {
	s.wmu.Lock()
	topics := make([]Topic, 0, len(s.hostTopics[hostID]))
	for t := range s.hostTopics[hostID] {
		topics = append(topics, t)
	}
	delete(s.hostTopics, hostID)
	old := *s.hosts.Load()
	hosts := make(map[string]Subscriber, len(old))
	for k, v := range old {
		if k != hostID {
			hosts[k] = v
		}
	}
	s.hosts.Store(&hosts)
	if h, ok := s.hostIDs.Lookup(hostID); ok {
		oldSlots := *s.hostSlots.Load()
		slots := make([]Subscriber, len(oldSlots))
		copy(slots, oldSlots)
		slots[h] = nil
		s.hostSlots.Store(&slots)
	}
	s.wmu.Unlock()
	for _, t := range topics {
		_, _ = s.kv.SetRemove(string(t), kvstore.Member(hostID))
		s.bumpShard(s.Shard(t))
	}
}

// Subscribers returns the current merged subscriber list for a topic
// (diagnostics; the publish path uses the cache + staged first-responder
// flow). It always reads the replicas.
func (s *Service) Subscribers(topic Topic) []string {
	var views []kvstore.SetView
	for _, r := range s.kv.ReadAll(string(topic)) {
		if r.View != nil { // down, or no different from the first
			views = append(views, r.View)
		}
	}
	members := kvstore.Merge(views...).Members()
	out := make([]string, len(members))
	for i, m := range members {
		out[i] = string(m)
	}
	return out
}

// nextEventID assigns an event ID from the shard's stripe counter.
func (s *Service) nextEventID(shard int) uint64 {
	stripe := uint64(shard) % eventStripes
	seq := uint64(s.eventSeq[stripe].v.Add(1))
	return seq<<8 | stripe
}

// Publish assigns the event an id and fans it out to the topic's
// subscribers.
//
// Fast path: if the topic's subscriber set is cached at the shard's
// current subscription version (and within its TTL), fan-out runs straight
// from the cached member list — no replica read, no patching.
//
// Slow path (cache miss, version change, TTL expiry, or cache disabled) is
// the staged first-responder flow:
//
//  1. Query all replicas of the topic's subscriber list.
//  2. Forward immediately to the members of the first successful response
//     (typically the local-region replica — lowest latency).
//  3. When the other responses arrive, forward to members missing from the
//     first list, and patch any divergent replica to the merged view.
//
// The merged view is cached under the version observed before the read;
// any subscription mutation that raced the read also bumped the version
// afterwards, so the stale entry misses on the next publish.
//
// Delivery is best effort: unknown or failed hosts are skipped silently.
// Publish returns the number of hosts the event was sent to.
//
//brlint:hotpath fast-path fan-out is gated at 0 allocs/op (TestAllocContracts); the slow path lives in publishSlow behind an audited allow
func (s *Service) Publish(ev Event) (int, error) {
	shard := s.Shard(ev.Topic)
	rt := s.route.Load()
	srv := rt.serverFor(shard, s.cfg.Servers)
	if !rt.up[srv] {
		if !rt.anyUp {
			return 0, ErrUnavailable
		}
		// Another front end takes over the down server's shard.
		for i, up := range rt.up {
			if up {
				srv = i
				break
			}
		}
	}
	// Admission: shed before any ID assignment, replica read, or fan-out
	// work. The nil check is free when admission is disabled.
	if !s.Admit.Allow() {
		sp := s.Tracer.Start(ev.Trace, trace.HopFanout, trace.HopPublish)
		sp.Drop("admission")
		sp.End()
		return 0, ErrShed
	}
	s.serverLoad[srv].v.Add(1)
	ev.ID = s.nextEventID(shard)

	s.Publishes.Inc()

	// Inactive (and free) unless the event is sampled and a tracer is set.
	sp := s.Tracer.Start(ev.Trace, trace.HopFanout, trace.HopPublish)
	sp.Annotate("topic", string(ev.Topic))
	sp.AnnotateInt("shard", int64(shard))

	// The delivery snapshot is taken once per fan-out; deliverTo on the
	// hot path is then a plain map lookup.
	hosts := *s.hosts.Load()

	// Fast path: version-checked cache hit. The version is loaded before
	// the cache entry so a concurrent invalidation cannot be missed.
	var ver uint64
	if s.subCache != nil {
		ver = s.shardVer[shard].Load()
		if e, ok := s.subCache.Get(ev.Topic); ok {
			if e.ver == ver {
				s.SubCacheHits.Inc()
				// Dispatch via interned handles: one slice index per
				// subscriber instead of a string-keyed map lookup. Removed
				// hosts leave a nil slot, so even a fresh cache entry that
				// still lists them cannot deliver to them.
				slots := *s.hostSlots.Load()
				n := 0
				for _, h := range e.handles {
					if int(h) >= len(slots) {
						continue
					}
					if sub := slots[h]; sub != nil {
						//brlint:allow(hot-path-alloc) subscriber dispatch: production subscribers (brass.Host, bench.Sink) are hotpath-gated; baseline/ablation subscribers allocate but are experiment-only
						sub.Deliver(ev)
						n++
					}
				}
				s.finishFanout(n)
				sp.Annotate("cache", "hit")
				sp.AnnotateInt("fanout", int64(n))
				sp.End()
				return n, nil
			}
			s.SubCacheStale.Inc()
			sp.Annotate("cache", "stale")
		} else {
			s.SubCacheMiss.Inc()
			sp.Annotate("cache", "miss")
		}
	}

	// The span moves by value into the slow path, which ends it; taking
	// its address here would heap-allocate it on every publish.
	//brlint:allow(hot-path-alloc) cache miss/stale takes the replica-read flow; its allocations are per-miss, not per-publish, and the cached result keeps later publishes on the fast path
	return s.publishSlow(ev, shard, ver, hosts, sp)
}

// publishSlow is the staged first-responder flow behind Publish's cache
// miss: replica read, immediate forward on the first response, catch-up
// forwards, divergence repair, and cache fill. It owns sp from here on and
// ends it on every path.
func (s *Service) publishSlow(ev Event, shard int, ver uint64, hosts map[string]Subscriber, sp trace.Span) (int, error) {
	resp := s.kv.ReadAll(string(ev.Topic))

	// Stage 1: first successful replica response starts fan-out.
	first := 0
	for first < len(resp) && resp[first].Err != nil {
		first++
	}
	if first == len(resp) {
		// All replicas down: the event is dropped (best effort); the
		// affected BRASSes detect quorum loss separately.
		s.DroppedNoSub.Inc()
		sp.Annotate("drop", "all-replicas-down")
		sp.End()
		return 0, fmt.Errorf("pylon: publish %q: all subscription replicas down", ev.Topic)
	}
	// The views are sorted by member, so every stage delivers in member
	// order, reading the present members in place.
	merged := resp[first].View
	n := 0
	for _, m := range merged {
		if !m.Present {
			continue
		}
		if sub := hosts[string(m.Member)]; sub != nil {
			sub.Deliver(ev)
			n++
		}
	}

	// Stage 2: a replica that differs from the first (one that agrees
	// answered nil) may know subscribers the first missed.
	var sent map[kvstore.Member]bool // non-nil once a replica has differed
	for _, r := range resp[first+1:] {
		if r.View == nil {
			continue
		}
		if sent == nil {
			sent = make(map[kvstore.Member]bool, len(merged))
			for _, m := range merged {
				if m.Present {
					sent[m.Member] = hosts[string(m.Member)] != nil
				}
			}
		}
		merged = kvstore.Merge(merged, r.View)
		for _, m := range r.View {
			if !m.Present {
				continue
			}
			if sub := hosts[string(m.Member)]; sub != nil && !sent[m.Member] {
				sub.Deliver(ev)
				sent[m.Member] = true
				n++
				s.PatchForwards.Inc()
			}
		}
	}

	// Stage 3: repair divergent replicas toward the merged view. Replicas
	// that all agree with the first need none: its view is the merged one.
	patched := 0
	if sent != nil {
		if patched = s.kv.Patch(string(ev.Topic), merged); patched > 0 {
			s.Patches.Add(int64(patched))
		}
	}

	if s.subCache != nil {
		if patched > 0 {
			// The repair changed replica state out from under any entry
			// cached off the divergent views (including by concurrent
			// publishers); force the next publish to re-read.
			s.bumpShard(shard)
		} else {
			// Resolve members to interned handles once, at fill time; the
			// fan-out loop then never touches the strings again. Interning
			// is a mutex'd map hit for known hosts — per miss, not per
			// publish.
			present := 0
			for _, m := range merged {
				if m.Present {
					present++
				}
			}
			handles := make([]uint32, 0, present)
			for _, m := range merged {
				if m.Present {
					handles = append(handles, s.hostIDs.Intern(string(m.Member)))
				}
			}
			s.subCache.Put(ev.Topic, subEntry{ver: ver, handles: handles})
		}
	}

	s.finishFanout(n)
	sp.AnnotateInt("fanout", int64(n))
	sp.End()
	return n, nil
}

// finishFanout records the per-publish delivery metrics.
func (s *Service) finishFanout(n int) {
	if n == 0 {
		s.DroppedNoSub.Inc()
	}
	s.Deliveries.Add(int64(n))
	s.FanoutSize.Observe(int64(n))
}

func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
