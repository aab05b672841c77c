package brass

import (
	"time"

	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/trace"
)

// Hot-event payload sharing (paper §3.2: metadata-only publish + fetch-back
// design). When one hot event fans out to many viewers on the same BRASS
// host, every stream needs the same payload bytes but its own privacy
// decision. The host therefore runs the WAS privacy check per viewer and
// shares only the TAO read: the resolved bytes sit in a small TTL-bounded
// LRU, so later streams of the same event skip the WAS. Nothing coalesces
// in-flight fetches: one instance loop runs every fetch of one app on one
// host, and the key names the app. A miss allocates only the bytes the
// resolver encodes. Cached payload byte slices are shared across streams
// and must be treated as immutable by application code.

// payloadKey identifies one event's payload on one application. Event IDs
// are unique per publish, so the key never aliases two payloads.
type payloadKey struct {
	app string
	id  uint64
	ref uint64
}

// DefaultPayloadCacheSize is the per-host payload cache capacity used when
// HostConfig.PayloadCacheSize is 0.
const DefaultPayloadCacheSize = 1024

// payloadCacheTTL bounds payload reuse: long enough to cover one hot
// event's fan-out burst, short enough that an edited payload converges
// within a couple of seconds.
const payloadCacheTTL = 2 * time.Second

// fetchPayload is the host-level payload fetch every stream routes through:
// per-viewer privacy check, then cache, then the WAS into the cache.
func (h *Host) fetchPayload(app string, viewer socialgraph.UserID, ev pylon.Event) ([]byte, error) {
	sp := h.cfg.Tracer.Start(ev.Trace, trace.HopFetch, trace.HopDeliver)
	defer sp.End()
	sp.Annotate("host", h.cfg.ID)
	sp.Annotate("app", app)
	h.WASFetches.Inc()
	if h.payloadCache == nil {
		sp.Annotate("cache", "disabled")
		return h.was.FetchPayloadIn(h.cfg.Region, app, viewer, ev)
	}
	// The privacy check is mandatory per viewer; only the TAO read below
	// is shared.
	if err := h.was.CheckEventVisibility(viewer, ev); err != nil {
		sp.Annotate("denied", "privacy")
		return nil, err
	}
	key := payloadKey{app: app, id: ev.ID, ref: ev.Ref}
	if b, ok := h.payloadCache.Get(key); ok {
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
		h.payloadCache.Put(key, b)
	}
	return b, err
}
