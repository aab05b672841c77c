// Package core assembles a complete Bladerunner deployment: the social
// graph, TAO, the subscription KV cluster, Pylon, the WAS tier, BRASS
// hosts across regions, reverse proxies, and POPs — wired over an
// in-process network. It is the entry point the examples and the end-to-end
// tests use. BRASS placement lives in the routers' target lists; the
// ZooKeeper-style registry the paper keeps it in (§3.2) is not modelled.
package core

import (
	"fmt"
	"io"
	"slices"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/device"
	"bladerunner/internal/edge"
	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/region"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/trace"
	"bladerunner/internal/was"
)

// Config parameterizes a Cluster.
type Config struct {
	// Regions are the datacenter region labels.
	Regions []string
	// BRASSHostsPerRegion is the number of BRASS hosts in each region.
	BRASSHostsPerRegion int
	// ProxiesPerRegion is the number of reverse proxies per region.
	ProxiesPerRegion int
	// POPs is the number of edge points of presence.
	POPs int
	// KVNodesPerRegion backs Pylon's subscription store, which keeps
	// kvReplicas copies of every subscription.
	KVNodesPerRegion int
	// Graph configures the synthetic social graph.
	Graph socialgraph.Config
	// TAO configures the graph store.
	TAO tao.Config
	// StickyRouting enables BRASS sticky-routing rewrites.
	StickyRouting bool
	// Overload configures the overload-control plane on every BRASS host.
	// The zero value leaves the plane in its defaults (bounded loop queue
	// at the built-in depth, no per-stream delivery admission).
	Overload OverloadConfig
	// Trace, when set, wires the end-to-end tracing plane through every
	// tier: the WAS samples mutations and each component closes its hop
	// spans into the plane's per-process collectors. nil (the default)
	// leaves all tracers nil — the zero-overhead configuration.
	Trace *trace.Plane
	// Durlog, when set, gives every BRASS host a durable per-topic log
	// (internal/durlog) at that package's default sizing. An application
	// that calls the host's log (Messenger) then serves cursor-based
	// resumes from it; the rest never touch it. nil (the default) keeps
	// the pre-log behaviour: every resume is served from the backend.
	Durlog *DurlogConfig
	// Geo, when set, activates the multi-region plane: each region gets
	// its own Pylon cluster (over its own subscription KV nodes) and TAO
	// follower; devices are homed by user id; cross-region dials pay the
	// topology's modeled latency and respect link state; and mutations
	// publish region-locally then replicate outward over per-link workers.
	// Geo.Regions defaults to Config.Regions when empty. nil (the default)
	// keeps the single shared Pylon — the pre-region behaviour.
	Geo *region.Config
}

// OverloadConfig selects the cluster-wide overload-control posture; the
// fields mirror brass.HostConfig (see there for semantics).
type OverloadConfig struct {
	LoopQueueDepth     int
	StreamDeliverRate  float64
	StreamDeliverBurst float64
}

// DurlogConfig turns the durable log on; it has no fields, because every
// deployment runs the log at durlog.Config's defaults. Which applications
// use it is theirs to decide: Messenger's resumes read it, while
// TypingIndicator, whose state is worthless milliseconds later, never does.
type DurlogConfig struct{}

// DefaultConfig returns a small but fully wired deployment: 2 regions, 2
// BRASS hosts and 1 proxy per region, 2 POPs.
func DefaultConfig() Config {
	return Config{
		Regions:             []string{"us-east", "eu-west"},
		BRASSHostsPerRegion: 2,
		ProxiesPerRegion:    1,
		POPs:                2,
		KVNodesPerRegion:    2,
		Graph:               socialgraph.DefaultConfig(),
		TAO:                 tao.DefaultConfig(),
		StickyRouting:       true,
	}
}

// Cluster is a running Bladerunner deployment.
type Cluster struct {
	Cfg     Config
	Net     *edge.PipeNetwork
	Graph   *socialgraph.Graph
	TAO     *tao.Store
	KV      *kvstore.Cluster
	Pylon   *pylon.Service
	WAS     *was.Server
	Apps    *apps.Suite
	Hosts   []*brass.Host
	Proxies []*edge.Proxy
	POPs    []*edge.Proxy
	Sched   sim.Scheduler

	// Multi-region plane (nil/empty unless Cfg.Geo is set). Pylon above
	// remains the PRIMARY region's service so single-region callers work
	// unchanged; RegionPylons holds every region's.
	Topo         *region.Topology
	Gate         *region.Gate
	Plane        *region.Plane
	RegionPylons map[string]*pylon.Service
	Followers    map[string]*tao.Follower

	popTargets []string
	popRegion  map[string]string // pop id → region (Geo only)
}

// NewCluster builds and wires a deployment. sched may be nil for the wall
// clock.
func NewCluster(cfg Config, sched sim.Scheduler) (*Cluster, error) {
	if len(cfg.Regions) == 0 {
		return nil, fmt.Errorf("core: need at least one region")
	}
	if cfg.BRASSHostsPerRegion < 1 || cfg.ProxiesPerRegion < 1 || cfg.POPs < 1 {
		return nil, fmt.Errorf("core: need at least one BRASS host, proxy, and POP")
	}
	if sched == nil {
		sched = sim.RealClock{}
	}

	// Geo mode: regions come from the region config (defaulted from the
	// cluster's), and the live topology drives routing, dial gating, and
	// replication below.
	var topo *region.Topology
	if cfg.Geo != nil {
		g := *cfg.Geo
		if len(g.Regions) == 0 {
			g.Regions = cfg.Regions
		}
		cfg.Regions = g.Regions
		cfg.Geo = &g
		var err error
		topo, err = region.NewTopology(g)
		if err != nil {
			return nil, err
		}
	}

	// Subscription KV + Pylon. Single-region mode shares one Pylon
	// cluster whose KV nodes spread across region labels; Geo mode gives
	// each region its OWN KV cluster and Pylon service, joined only by
	// the replication plane — a region-cut cannot take another region's
	// pub/sub tier with it.
	var (
		kv           *kvstore.Cluster
		pyl          *pylon.Service
		regionPylons map[string]*pylon.Service
		err          error
	)
	if topo == nil {
		pt, err := NewPylonTier(cfg)
		if err != nil {
			return nil, err
		}
		kv, pyl = pt.KV, pt.Pylon
	} else {
		regionPylons = make(map[string]*pylon.Service, len(cfg.Regions))
		for _, r := range cfg.Regions {
			rkv, err := newKVCluster(cfg, []string{r})
			if err != nil {
				return nil, err
			}
			rp, err := pylon.New(pylon.DefaultConfig(), rkv)
			if err != nil {
				return nil, err
			}
			if cfg.Trace != nil {
				rp.Tracer = cfg.Trace.Tracer("pylon-" + r)
			}
			regionPylons[r] = rp
			if r == topo.Primary() {
				kv, pyl = rkv, rp
			}
		}
	}

	wt, err := NewWASTier(cfg, pyl, nil, sched)
	if err != nil {
		return nil, err
	}
	graph, store, w, suite := wt.Graph, wt.TAO, wt.WAS, wt.Apps
	if cfg.Trace != nil {
		w.Sampler = cfg.Trace.Sampler
		w.Tracer = cfg.Trace.Tracer("was")
		if topo == nil {
			pyl.Tracer = cfg.Trace.Tracer("pylon")
		}
	}

	c := &Cluster{
		Cfg:   cfg,
		Net:   edge.NewPipeNetwork(),
		Graph: graph,
		TAO:   store,
		KV:    kv,
		Pylon: pyl,
		WAS:   w,
		Apps:  suite,
		Sched: sched,
	}

	if topo != nil {
		c.Topo = topo
		c.Gate = region.NewGate(topo, sched)
		c.RegionPylons = regionPylons
		plane, err := region.NewPlane(topo, sched, regionPylons)
		if err != nil {
			return nil, err
		}
		c.Plane = plane
		// Mutations publish through the plane: origin region first, then
		// replicated outward per link.
		w.Fanout = plane
		// Each non-primary region reads TAO through its own follower,
		// invalidated by leader writes after the link's replication lag.
		c.Followers = make(map[string]*tao.Follower)
		for _, r := range cfg.Regions {
			if r == topo.Primary() {
				continue
			}
			f := tao.NewFollower(store)
			store.AttachFollower(f, topo.ReplLagDist(topo.Primary(), r), sched, cfg.Geo.Seed^0x7a0)
			w.RegisterReader(r, f)
			c.Followers[r] = f
		}
		c.popRegion = make(map[string]string)
	}

	// BRASS hosts, registered on the network and with their region's
	// Pylon.
	brassByRegion := make(map[string][]string)
	for _, r := range cfg.Regions {
		hostPylon := pyl
		if topo != nil {
			hostPylon = regionPylons[r]
		}
		for _, host := range NewBrassTier(cfg, r, "", suite, hostPylon, w, sched).Hosts {
			id := host.ID()
			c.Hosts = append(c.Hosts, host)
			brassByRegion[r] = append(brassByRegion[r], id)
			c.Net.Register(id, func(rwc io.ReadWriteCloser) {
				host.AcceptSession(id+"-in", rwc)
			})
			if c.Gate != nil {
				c.Gate.RegisterTarget(id, r)
			}
		}
	}

	// Reverse proxies: route streams to BRASS hosts, honoring sticky
	// headers. Geo mode prefers the proxy's home region and fails over to
	// healthy remote regions through the dial gate; single-region mode
	// keeps the region-local round robin.
	var proxyTargets []string
	for _, r := range cfg.Regions {
		for i := 0; i < cfg.ProxiesPerRegion; i++ {
			id := fmt.Sprintf("proxy-%s-%d", r, i)
			var router edge.Router
			var dialer edge.Dialer = c.Net
			if topo != nil {
				rr := region.NewRouter(topo, r)
				for _, br := range cfg.Regions {
					for _, t := range brassByRegion[br] {
						rr.AddTarget(br, t)
					}
				}
				router = edge.StickyRouter{Fallback: rr}
				dialer = c.Gate.DialerFor(r, c.Net)
			} else {
				router = edge.StickyRouter{
					Fallback: edge.NewRoundRobinRouter(brassByRegion[r]...),
				}
			}
			p := edge.NewProxy(id, dialer, router)
			p.Tracer = cfg.Trace.Tracer(id)
			c.Proxies = append(c.Proxies, p)
			proxyTargets = append(proxyTargets, id)
			c.Net.Register(id, p.Accept)
			if c.Gate != nil {
				c.Gate.RegisterTarget(id, r)
			}
		}
	}

	// POPs: route to reverse proxies. Geo mode homes POPs round-robin
	// across regions and routes region-locally first.
	proxiesByRegion := make(map[string][]string)
	for _, t := range proxyTargets {
		if c.Gate != nil {
			proxiesByRegion[c.Gate.RegionOf(t)] = append(proxiesByRegion[c.Gate.RegionOf(t)], t)
		}
	}
	for i := 0; i < cfg.POPs; i++ {
		id := fmt.Sprintf("pop-%d", i)
		var router edge.Router
		var dialer edge.Dialer = c.Net
		if topo != nil {
			popHome := cfg.Regions[i%len(cfg.Regions)]
			rr := region.NewRouter(topo, popHome)
			for pr, ts := range proxiesByRegion {
				for _, t := range ts {
					rr.AddTarget(pr, t)
				}
			}
			router = rr
			dialer = c.Gate.DialerFor(popHome, c.Net)
			c.popRegion[id] = popHome
		} else {
			router = edge.NewRoundRobinRouter(proxyTargets...)
		}
		p := edge.NewProxy(id, dialer, router)
		p.Tracer = cfg.Trace.Tracer(id)
		c.POPs = append(c.POPs, p)
		c.popTargets = append(c.popTargets, id)
		c.Net.Register(id, p.Accept)
		if c.Gate != nil {
			c.Gate.RegisterTarget(id, c.popRegion[id])
		}
	}
	return c, nil
}

// MustNewCluster is NewCluster that panics on error.
func MustNewCluster(cfg Config, sched sim.Scheduler) *Cluster {
	c, err := NewCluster(cfg, sched)
	if err != nil {
		panic(err)
	}
	return c
}

// POPTargets returns the dialable POP names for devices.
func (c *Cluster) POPTargets() []string {
	return append([]string(nil), c.popTargets...)
}

// POPTargetsFor returns POP names ordered for a device homed in region:
// home-region POPs first, everything else after — the device's natural
// rotation order reaches a cross-region POP only once home is exhausted.
// Without a region plane it returns POPTargets unchanged.
func (c *Cluster) POPTargetsFor(region string) []string {
	if c.popRegion == nil {
		return c.POPTargets()
	}
	out := make([]string, 0, len(c.popTargets))
	for _, t := range c.popTargets {
		if c.popRegion[t] == region {
			out = append(out, t)
		}
	}
	for _, t := range c.popTargets {
		if c.popRegion[t] != region {
			out = append(out, t)
		}
	}
	return out
}

// NewDevice builds a device for user wired to this cluster's POPs. Under
// a region plane the device is homed by user id: its reads hit its home
// region's TAO follower, its POP preference order starts at home, and its
// cross-region dials go through the gate.
func (c *Cluster) NewDevice(user socialgraph.UserID) *device.Device {
	return c.NewDeviceVia(c.Net, device.Config{User: user})
}

// NewDeviceVia builds a device that reaches the cluster's POPs through the
// given dialer — e.g. a faults.FaultNetwork wrapping this cluster's Net, so
// chaos tests can inject faults on the device's last mile.
//
// Device dials are deliberately NOT gated by the region topology: devices
// reach POPs over the public internet, not the inter-region backbone, so a
// region-cut kills the region's POPs (they are registered targets of the
// cut) but never strands a device — it rotates to a healthy region's POP
// and attaches there. Only datacenter-to-datacenter hops (POP→proxy,
// proxy→BRASS, event replication) ride the gated links.
func (c *Cluster) NewDeviceVia(dialer edge.Dialer, cfg device.Config) *device.Device {
	if c.Topo != nil && cfg.Region == "" {
		cfg.Region = c.Topo.Home(uint64(cfg.User))
	}
	if len(cfg.POPs) == 0 {
		cfg.POPs = c.POPTargetsFor(cfg.Region)
	}
	if cfg.Tracer == nil {
		cfg.Tracer = c.Cfg.Trace.Tracer(fmt.Sprintf("device-%d", cfg.User))
	}
	return device.New(cfg, dialer, c.WAS, c.Sched)
}

// WaitForStreams blocks until each of streams is open at a BRASS host that
// Pylon lists as a subscriber of topic, polling on the cluster's scheduler,
// and reports whether that happened before timeout. Viewers land on
// several hosts: Pylon.WaitForSubscriber returns once the first of them has
// subscribed, and an update published then misses the viewers of the
// others. A stream's host is the one its sticky-brass header names, which
// needs Config.StickyRouting (the default).
func (c *Cluster) WaitForStreams(topic pylon.Topic, streams []*device.Stream, timeout time.Duration) bool {
	subscribed := func(st *device.Stream) bool {
		host := st.HeaderField(burst.HdrStickyBRASS)
		pyl := c.Pylon
		if c.Gate != nil {
			pyl = c.RegionPylons[c.Gate.RegionOf(host)]
		}
		return host != "" && pyl != nil && slices.Contains(pyl.Subscribers(topic), host)
	}
	deadline := c.Sched.Now().Add(timeout)
	for _, st := range streams {
		for !subscribed(st) {
			if !c.Sched.Now().Before(deadline) {
				return false
			}
			sim.Sleep(c.Sched, time.Millisecond)
		}
	}
	return true
}

// Close tears the deployment down: POPs, proxies, hosts, then the
// replication plane's link workers.
func (c *Cluster) Close() {
	for _, p := range c.POPs {
		p.Close()
	}
	for _, p := range c.Proxies {
		p.Close()
	}
	for _, h := range c.Hosts {
		h.Close()
	}
	if c.Plane != nil {
		c.Plane.Close()
	}
}

// TotalDecisions sums delivery decisions across all BRASS hosts.
func (c *Cluster) TotalDecisions() int64 {
	var total int64
	for _, h := range c.Hosts {
		total += h.Decisions.Value()
	}
	return total
}

// Quiesce drains every BRASS host's event loops (tests).
func (c *Cluster) Quiesce() {
	for _, h := range c.Hosts {
		h.Quiesce()
	}
}
