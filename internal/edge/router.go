package edge

import (
	"sync"

	"bladerunner/internal/burst"
)

// Router chooses the upstream target for a subscription request. avoid
// lists targets known to be failing for this stream right now (the router
// may still return one if nothing else exists).
type Router interface {
	Route(sub burst.Subscribe, avoid map[string]bool) (string, error)
}

// StaticRouter always routes to one target.
type StaticRouter string

// Route implements Router.
func (r StaticRouter) Route(burst.Subscribe, map[string]bool) (string, error) {
	return string(r), nil
}

// RoundRobinRouter cycles through targets, skipping avoided ones when
// possible — the paper's load-based routing for high-fanout applications.
type RoundRobinRouter struct {
	mu      sync.Mutex
	targets []string
	next    int
}

// NewRoundRobinRouter builds a router over targets.
func NewRoundRobinRouter(targets ...string) *RoundRobinRouter {
	cp := append([]string(nil), targets...)
	return &RoundRobinRouter{targets: cp}
}

// SetTargets replaces the target list (rebalancing, host churn).
func (r *RoundRobinRouter) SetTargets(targets ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.targets = append([]string(nil), targets...)
	r.next = 0
}

// Route implements Router.
func (r *RoundRobinRouter) Route(_ burst.Subscribe, avoid map[string]bool) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.targets) == 0 {
		return "", ErrNoRoute
	}
	for i := 0; i < len(r.targets); i++ {
		t := r.targets[r.next%len(r.targets)]
		r.next++
		if !avoid[t] {
			return t, nil
		}
	}
	return "", ErrNoRoute
}

// StickyRouter honors the sticky-routing header written by a BRASS rewrite
// (paper §3.5): a resubscribe lands on the instance that previously served
// the stream. When the sticky target is avoided or absent, it falls back.
type StickyRouter struct {
	Fallback Router
}

// Route implements Router.
func (r StickyRouter) Route(sub burst.Subscribe, avoid map[string]bool) (string, error) {
	if target := sub.Header[burst.HdrStickyBRASS]; target != "" && !avoid[target] {
		return target, nil
	}
	return r.Fallback.Route(sub, avoid)
}
