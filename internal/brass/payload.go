package brass

import (
	"time"

	"bladerunner/internal/cache"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/trace"
)

// Hot-event payload sharing (paper §3.2: metadata-only publish + fetch-back
// design). When one hot event fans out to many viewers on the same BRASS
// host, every stream needs the same payload bytes but its own privacy
// decision. The host therefore runs the WAS privacy check per viewer and
// shares only the TAO read: the resolved bytes sit in a small TTL-bounded
// LRU, so later streams of the same event skip the WAS. Each instance keeps
// its own, and one loop makes all its fetches: nothing coalesces in-flight
// fetches, and one app's events never evict another's. A miss allocates only
// the bytes the resolver encodes. Cached payload byte slices are shared
// across streams and must be treated as immutable by application code.

// payloadKey identifies one event's payload within one application. Event
// IDs are unique per publish, so the key never aliases two payloads.
type payloadKey struct {
	id  uint64
	ref uint64
}

// Hash spreads payloadKeys over an instance's payload cache.
func (k payloadKey) Hash() uint64 { return cache.Uint64Hash(k.id ^ cache.Uint64Hash(k.ref)) }

// payloadCacheSize is each instance's capacity: one event's fan-out, served
// inside one OnEvent, or the comments LVC's viewers pop up to one rate limit
// apart, while fewer than 64 others are fetched between (DESIGN.md §7b).
const payloadCacheSize = 64

// payloadCacheTTL bounds payload reuse: long enough to cover one hot
// event's fan-out burst, short enough that an edited payload converges
// within a couple of seconds.
const payloadCacheTTL = 2 * time.Second

// fetchPayload is the payload fetch every stream of the instance routes
// through: per-viewer privacy check, then cache, then the WAS into the cache.
func (inst *Instance) fetchPayload(viewer socialgraph.UserID, ev pylon.Event) ([]byte, error) {
	h, app := inst.host, inst.app.Name()
	sp := h.cfg.Tracer.Start(ev.Trace, trace.HopFetch, trace.HopDeliver)
	defer sp.End()
	sp.Annotate("host", h.cfg.ID)
	sp.Annotate("app", app)
	h.WASFetches.Inc()
	// The privacy check is mandatory per viewer; only the TAO read below
	// is shared.
	if err := h.was.CheckEventVisibility(viewer, ev); err != nil {
		sp.Annotate("denied", "privacy")
		return nil, err
	}
	key := payloadKey{id: ev.ID, ref: ev.Ref}
	if b, ok := inst.payloads.Get(key); ok {
		h.PayloadCacheHits.Inc()
		sp.Annotate("cache", "hit")
		return b, nil
	}
	h.PayloadCacheMisses.Inc()
	sp.Annotate("cache", "miss")
	// Payload reads come from the host's region-local TAO tier; only the
	// privacy check above needed the authoritative graph.
	b, err := h.was.ResolvePayloadIn(h.cfg.Region, app, ev)
	if err == nil {
		inst.payloads.Put(key, b)
	}
	return b, err
}
