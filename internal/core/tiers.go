package core

import (
	"fmt"

	"bladerunner/internal/apps"
	"bladerunner/internal/brass"
	"bladerunner/internal/edge"
	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// Per-tier constructors. NewCluster assembles every tier in one process;
// cmd/brnode runs exactly one of these per process and joins them over
// the control protocol (internal/ctrl). Both paths build each tier
// through the same constructor, so a multi-process deployment is the
// in-process cluster cut at its interface seams — brass.PubSub,
// brass.Backend, was.Publisher — and nothing else.

// PylonTier is the pub/sub tier: the subscription KV cluster and the
// Pylon service over it.
type PylonTier struct {
	KV    *kvstore.Cluster
	Pylon *pylon.Service
}

// NewPylonTier builds the subscription store and Pylon for the configured
// regions (one shared cluster whose KV nodes spread across the region
// labels — the single-region-plane shape; the geo plane builds one tier
// per region instead).
func NewPylonTier(cfg Config) (*PylonTier, error) {
	kv, err := newKVCluster(cfg, cfg.Regions)
	if err != nil {
		return nil, err
	}
	pyl, err := pylon.New(pylon.DefaultConfig(), kv)
	if err != nil {
		return nil, err
	}
	return &PylonTier{KV: kv, Pylon: pyl}, nil
}

// kvReplicas is the subscription replication factor (capped at the node
// count).
const kvReplicas = 3

// newKVCluster builds the subscription KV nodes for the given regions.
func newKVCluster(cfg Config, regions []string) (*kvstore.Cluster, error) {
	var nodes []*kvstore.Node
	for _, r := range regions {
		for i := 0; i < cfg.KVNodesPerRegion; i++ {
			nodes = append(nodes, kvstore.NewNode(
				fmt.Sprintf("kv-%s-%d", r, i), r))
		}
	}
	return kvstore.NewCluster(nodes, min(kvReplicas, len(nodes)))
}

// WASTier is the backend tier: the social graph, TAO, the WAS with every
// application's resolvers registered, and the app suite.
type WASTier struct {
	Graph *socialgraph.Graph
	TAO   *tao.Store
	WAS   *was.Server
	Apps  *apps.Suite
}

// NewWASTier builds the backend. pyl is the directly reachable Pylon
// (in-process); fanout, when non-nil, overrides it as the publish sink —
// the region plane in-process, a ctrl.PylonClient across processes. With
// fanout set, pyl may be nil.
func NewWASTier(cfg Config, pyl *pylon.Service, fanout was.Publisher, sched sim.Scheduler) (*WASTier, error) {
	graph, err := socialgraph.Generate(cfg.Graph)
	if err != nil {
		return nil, err
	}
	store, err := tao.NewStore(cfg.TAO, sched)
	if err != nil {
		return nil, err
	}
	w := was.New(store, graph, pyl, sched)
	w.Fanout = fanout
	return &WASTier{Graph: graph, TAO: store, WAS: w, Apps: apps.NewSuite(w)}, nil
}

// BrassTier is one region's worth of BRASS hosts for one process.
type BrassTier struct {
	Hosts []*brass.Host
}

// NewBrassTier builds cfg.BRASSHostsPerRegion hosts homed in region, each
// consuming Pylon through pubsub and the WAS through backend (either the
// in-process services or ctrl clients), with the suite's application
// halves registered. idPrefix disambiguates hosts when several processes
// serve the same region ("" uses the in-process naming brass-<region>-<i>).
func NewBrassTier(cfg Config, region, idPrefix string, suite *apps.Suite, pubsub brass.PubSub, backend brass.Backend, sched sim.Scheduler) *BrassTier {
	t := &BrassTier{}
	for i := 0; i < cfg.BRASSHostsPerRegion; i++ {
		id := fmt.Sprintf("%sbrass-%s-%d", idPrefix, region, i)
		h := brass.NewHost(brassHostConfig(cfg, id, region), pubsub, backend, sched)
		suite.RegisterBRASS(h)
		t.Hosts = append(t.Hosts, h)
	}
	return t
}

// brassHostConfig maps the cluster config onto one host's HostConfig.
func brassHostConfig(cfg Config, id, region string) brass.HostConfig {
	return brass.HostConfig{
		ID: id, Region: region, StickyRouting: cfg.StickyRouting,
		Tracer:             cfg.Trace.Tracer(id),
		LoopQueueDepth:     cfg.Overload.LoopQueueDepth,
		StreamDeliverRate:  cfg.Overload.StreamDeliverRate,
		StreamDeliverBurst: cfg.Overload.StreamDeliverBurst,
		Durlog:             cfg.Durlog != nil,
	}
}

// NewPOPTier builds one POP proxy that routes streams (sticky-first)
// round-robin across brassTargets through dialer. The multi-process
// deployment folds the reverse-proxy tier into the POP: with one process
// per tier there is no co-located proxy fleet to fan through, and the
// POP's routing/sticky behaviour is identical.
func NewPOPTier(id string, dialer edge.Dialer, brassTargets []string) *edge.Proxy {
	router := edge.StickyRouter{Fallback: edge.NewRoundRobinRouter(brassTargets...)}
	return edge.NewProxy(id, dialer, router)
}
