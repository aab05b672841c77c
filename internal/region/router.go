package region

import (
	"sync"

	"bladerunner/internal/burst"
	"bladerunner/internal/edge"
)

// Router is a region-aware upstream router: it prefers targets in the
// caller's home region, then fails over to healthy remote regions in
// topology priority order, skipping regions that are down and regions the
// home region cannot currently reach. Within a region it round-robins.
//
// Wrapped in an edge.StickyRouter it yields the paper's geo-failover
// behaviour: a resubscribe first honours the sticky BRASS header; when
// that host (or its whole region) is gone, the fallback lands the stream
// on the closest healthy region and the serving BRASS rewrites the sticky
// header to itself — cross-region failover as a stream rewrite, not a new
// session.
type Router struct {
	topo *Topology
	home string

	mu      sync.Mutex
	targets map[string][]string // region → targets, insertion order
	next    map[string]int      // region → round-robin cursor
}

// NewRouter builds a router for callers homed in home; populate it with
// AddTarget. Routers are tier-scoped (a POP router holds proxies, a proxy
// router holds BRASS hosts), so the caller picks which targets belong.
func NewRouter(topo *Topology, home string) *Router {
	return &Router{
		topo:    topo,
		home:    home,
		targets: make(map[string][]string),
		next:    make(map[string]int),
	}
}

// AddTarget registers a routable target in region.
func (r *Router) AddTarget(region, target string) {
	r.mu.Lock()
	r.targets[region] = append(r.targets[region], target)
	r.mu.Unlock()
}

// Route implements edge.Router.
func (r *Router) Route(_ burst.Stored, avoid map[string]bool) (string, error) {
	// Pass 1: home region first, then remote regions in priority order
	// over reachable links.
	regions := append([]string{r.home}, r.remoteRegions()...)
	for _, region := range regions {
		if !r.topo.RegionUp(region) {
			continue
		}
		if region != r.home && !r.topo.LinkUp(r.home, region) {
			continue
		}
		if t, ok := r.pick(region, avoid); ok {
			return t, nil
		}
	}
	// Pass 2: every region looked dead or avoided. Routing on a possibly-
	// stale topology beats refusing outright (the dial gate is the final
	// arbiter), so hand out any non-avoided target.
	for _, region := range regions {
		if t, ok := r.pick(region, avoid); ok {
			return t, nil
		}
	}
	return "", edge.ErrNoRoute
}

// remoteRegions returns every region except home, in priority order.
func (r *Router) remoteRegions() []string {
	all := r.topo.Regions()
	out := make([]string, 0, len(all)-1)
	for _, region := range all {
		if region != r.home {
			out = append(out, region)
		}
	}
	return out
}

// pick round-robins over region's targets, skipping avoided ones.
func (r *Router) pick(region string, avoid map[string]bool) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := r.targets[region]
	for i := 0; i < len(ts); i++ {
		t := ts[r.next[region]%len(ts)]
		r.next[region]++
		if !avoid[t] {
			return t, true
		}
	}
	return "", false
}

var _ edge.Router = (*Router)(nil)
