// Package region models Bladerunner's multi-datacenter deployment: N
// regions, each with its own Pylon cluster, BRASS fleet, and POPs, joined
// by inter-region links with realistic (asymmetric) latency. The paper's
// write path commits in one region and relies on cross-region replication
// — of both TAO invalidations and Pylon events — to give every edge a live
// view; the region plane makes that replication explicit so experiments
// can cut a region, partition a link, or brown it out and measure what the
// devices see.
//
// The package is deliberately below internal/faults in the import graph:
// faults drives region-scoped failures through the Topology and Gate here,
// never the other way around.
package region

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bladerunner/internal/sim"
)

// Link names a directed inter-region edge.
type Link struct {
	Src, Dst string
}

// Config describes the region topology for a Cluster.
type Config struct {
	// Regions lists region names in priority order; Regions[0] is the
	// primary (the region TAO leaders and the authoritative WAS write
	// path live in). Must have at least one entry.
	Regions []string
	// Latency is the one-way per-write network latency of every
	// inter-region link; intra-region latency is always zero. Nil means
	// no added latency.
	Latency sim.Dist
	// ReplLag is the event/invalidation replication lag of every
	// inter-region link (typically larger than Latency: replication is
	// batched and rate-limited; cross-region links are "a limited
	// resource", §3.4). Nil means immediate replication.
	ReplLag sim.Dist
	// Seed drives every latency/lag sample in the topology.
	Seed int64
}

// Validate checks the config.
func (c *Config) Validate() error {
	if len(c.Regions) == 0 {
		return fmt.Errorf("region: config needs at least one region")
	}
	seen := make(map[string]bool, len(c.Regions))
	for _, r := range c.Regions {
		if r == "" {
			return fmt.Errorf("region: empty region name")
		}
		if seen[r] {
			return fmt.Errorf("region: duplicate region %q", r)
		}
		seen[r] = true
	}
	return nil
}

// Topology is the live, mutable view of the region graph: which regions
// and links are up, and what latency/lag they currently exhibit. All fault
// injection flows through here so that every consumer — the dial gate, the
// replication plane, the routers — sees one consistent picture.
type Topology struct {
	cfg Config

	mu         sync.Mutex
	rng        *rand.Rand
	linkDown   map[Link]bool
	regionDown map[string]bool
	changed    chan struct{} // closed+replaced on every state change
}

// NewTopology builds a Topology from cfg.
func NewTopology(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Topology{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed ^ 0x7e610)),
		linkDown:   make(map[Link]bool),
		regionDown: make(map[string]bool),
		changed:    make(chan struct{}),
	}, nil
}

// Regions returns the configured region names in priority order.
func (t *Topology) Regions() []string {
	return append([]string(nil), t.cfg.Regions...)
}

// Primary returns the primary region (Regions[0]).
func (t *Topology) Primary() string { return t.cfg.Regions[0] }

// Home deterministically assigns an entity (user/device id) a home region.
func (t *Topology) Home(id uint64) string {
	return t.cfg.Regions[id%uint64(len(t.cfg.Regions))]
}

// LinkUp reports whether the directed link src→dst is currently usable:
// both endpoints up and the link itself not partitioned. Intra-region
// "links" are up exactly when the region is.
func (t *Topology) LinkUp(src, dst string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.regionDown[src] || t.regionDown[dst] {
		return false
	}
	if src == dst {
		return true
	}
	return !t.linkDown[Link{src, dst}]
}

// RegionUp reports whether a region is up.
func (t *Topology) RegionUp(r string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.regionDown[r]
}

// SampleLatency draws a one-way network latency for src→dst. Intra-region
// latency is zero.
func (t *Topology) SampleLatency(src, dst string) time.Duration {
	if src == dst {
		return 0
	}
	return t.sample(t.cfg.Latency)
}

// SampleReplLag draws a replication lag for src→dst.
func (t *Topology) SampleReplLag(src, dst string) time.Duration {
	if src == dst {
		return 0
	}
	return t.sample(t.cfg.ReplLag)
}

func (t *Topology) sample(dist sim.Dist) time.Duration {
	if dist == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return dist.Sample(t.rng)
}

// ReplLagDist returns the configured replication-lag distribution for the
// directed link src→dst (nil means immediate). Used to parameterize other
// replication consumers — e.g. TAO follower invalidation — from the same
// topology the event plane uses.
func (t *Topology) ReplLagDist(src, dst string) sim.Dist {
	if src == dst {
		return nil
	}
	return t.cfg.ReplLag
}

// SetLinkDown partitions (or heals) the directed link src→dst.
func (t *Topology) SetLinkDown(src, dst string, down bool) {
	t.mu.Lock()
	t.linkDown[Link{src, dst}] = down
	t.bumpLocked()
	t.mu.Unlock()
}

// SetRegionDown takes a whole region down (or back up): every link touching
// it is implicitly unusable while down.
func (t *Topology) SetRegionDown(r string, down bool) {
	t.mu.Lock()
	t.regionDown[r] = down
	t.bumpLocked()
	t.mu.Unlock()
}

// Changed returns a channel closed at the next topology state change —
// a broadcast for workers parked waiting for a partition to heal. Callers
// must re-check the condition and re-acquire a fresh channel after a wake.
func (t *Topology) Changed() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.changed
}

// bumpLocked wakes everyone parked on Changed. Callers hold t.mu.
func (t *Topology) bumpLocked() {
	close(t.changed)
	t.changed = make(chan struct{})
}
