package edge

import (
	"sync"

	"bladerunner/internal/burst"
)

// Router chooses the upstream target for a subscription request, req: a
// relay's downstream stream, which holds it. avoid lists targets known to be
// failing for this stream right now; a router that has no target outside it
// returns ErrNoRoute (RoundRobinRouter does), and the relay hands the loss
// down. StaticRouter, which has one target, ignores it.
type Router interface {
	Route(req burst.Stored, avoid map[string]bool) (string, error)
}

// StaticRouter always routes to one target.
type StaticRouter string

// Route implements Router.
func (r StaticRouter) Route(burst.Stored, map[string]bool) (string, error) {
	return string(r), nil
}

// RoundRobinRouter cycles through targets, skipping avoided ones — the
// paper's load-based routing for high-fanout applications. With every target
// avoided it returns ErrNoRoute.
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

// Route implements Router.
func (r *RoundRobinRouter) Route(_ burst.Stored, avoid map[string]bool) (string, error) {
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
func (r StickyRouter) Route(req burst.Stored, avoid map[string]bool) (string, error) {
	if target := req.HeaderField(burst.HdrStickyBRASS); target != "" && !avoid[target] {
		return target, nil
	}
	return r.Fallback.Route(req, avoid)
}
