package main

import (
	"fmt"
	"io"
	"net"
	"sync"

	"bladerunner/internal/apps"
	"bladerunner/internal/brass"
	"bladerunner/internal/core"
	"bladerunner/internal/ctrl"
	"bladerunner/internal/edge"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// mutator is the WAS surface the generator publishes through: the
// in-process *was.Server, or a ctrl.WASClient over a loopback socket.
type mutator interface {
	MutateIn(region string, viewer socialgraph.UserID, expr string) ([]byte, error)
}

// cluster is one assembled deployment: 2 POPs → 2 reverse proxies (one per
// region) → 4 BRASS hosts (two per region), one Pylon tier, one WAS tier.
// It is built only from the public tier constructors, so it is the same
// system cmd/brnode deploys, cut at the same seams.
type cluster struct {
	mutate  mutator
	was     *was.Server
	tao     *tao.Store
	pylon   *pylon.Service
	hosts   []*brass.Host
	proxies []*edge.Proxy
	pops    []*edge.Proxy
	dial    edge.Dialer // reaches "pop-0", "pop-1"

	closers []func() // run in reverse order by close
}

func (c *cluster) onClose(fn func()) { c.closers = append(c.closers, fn) }

func (c *cluster) close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
}

// quiesce drains every BRASS host's event loops.
func (c *cluster) quiesce() {
	for _, h := range c.hosts {
		h.Quiesce()
	}
}

func (c *cluster) streamsOpened() (n int64) {
	for _, h := range c.hosts {
		n += h.StreamsOpened.Value()
	}
	return n
}

func (c *cluster) streamsClosed() (n int64) {
	for _, h := range c.hosts {
		n += h.StreamsClosed.Value()
	}
	return n
}

var regions = []string{"us-east", "eu-west"}

const hostsPerRegion = 2

func clusterConfig(sc *script) core.Config {
	cfg := core.DefaultConfig()
	cfg.Regions = regions
	// Hosts are built one tier call each so that every host can be given
	// its own seam wrappers (and, on the wire, its own control links, as
	// one brnode process per host would have).
	cfg.BRASSHostsPerRegion = 1
	cfg.Graph.Users = sc.users
	// Every delivery still pays the privacy check, but none is denied:
	// the benchmark's workloads contain no operation that fails.
	cfg.Graph.BlockProb = 0
	if sc.durlog {
		cfg.Durlog = &core.DurlogConfig{}
	}
	return cfg
}

// buildCluster assembles the deployment for sc. tr is nil for untraced
// runs, in which case the real services are wired to each other directly.
func buildCluster(sc *script, tr *tracer) (*cluster, error) {
	c := &cluster{}
	var err error
	if sc.wire {
		err = c.buildWire(clusterConfig(sc), tr)
	} else {
		err = c.buildPipes(clusterConfig(sc), tr)
	}
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// acceptor feeds accepted transports to a BURST endpoint.
type acceptor func(io.ReadWriteCloser)

// edgeTiers builds the proxies and POPs over dialer and hands every
// endpoint's accept callback to register.
func (c *cluster) edgeTiers(dialer edge.Dialer, tr *tracer, register func(target string, accept acceptor) error) error {
	inner := tr.dialer(linkRelay, dialer)
	var proxyIDs []string
	for r, region := range regions {
		var hostIDs []string
		for _, h := range c.hosts[r*hostsPerRegion : (r+1)*hostsPerRegion] {
			host := h
			hostIDs = append(hostIDs, host.ID())
			err := register(host.ID(), func(rwc io.ReadWriteCloser) {
				host.AcceptSession(host.ID()+"-in", tr.conn(linkRelay, rwc))
			})
			if err != nil {
				return err
			}
		}
		id := "proxy-" + region
		p := edge.NewProxy(id, inner, edge.StickyRouter{Fallback: edge.NewRoundRobinRouter(hostIDs...)})
		c.proxies = append(c.proxies, p)
		proxyIDs = append(proxyIDs, id)
		if err := register(id, func(rwc io.ReadWriteCloser) { p.Accept(tr.conn(linkRelay, rwc)) }); err != nil {
			return err
		}
	}
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("pop-%d", i)
		p := core.NewPOPTier(id, inner, proxyIDs)
		c.pops = append(c.pops, p)
		if err := register(id, func(rwc io.ReadWriteCloser) { p.Accept(tr.conn(linkDevice, rwc)) }); err != nil {
			return err
		}
	}
	c.dial = tr.dialer(linkDevice, dialer)
	c.onClose(func() {
		for _, p := range c.pops {
			p.Close()
		}
		for _, p := range c.proxies {
			p.Close()
		}
		for _, h := range c.hosts {
			h.Close()
		}
	})
	return nil
}

func (c *cluster) buildPipes(cfg core.Config, tr *tracer) error {
	pt, err := core.NewPylonTier(cfg)
	if err != nil {
		return err
	}
	tr.watchKV(pt.KV, len(cfg.Regions)*cfg.KVNodesPerRegion)
	var fanout was.Publisher
	if tr != nil {
		fanout = tr.publisher(pt.Pylon)
	}
	wt, err := core.NewWASTier(cfg, pt.Pylon, fanout, nil)
	if err != nil {
		return err
	}
	c.mutate, c.was, c.tao, c.pylon = wt.WAS, wt.WAS, wt.TAO, pt.Pylon
	for _, region := range regions {
		for i := 0; i < hostsPerRegion; i++ {
			prefix := fmt.Sprintf("%d-", i)
			id := prefix + "brass-" + region + "-0"
			bt := core.NewBrassTier(cfg, region, prefix, wt.Apps,
				tr.pubsub(id, pt.Pylon), tr.backend(id, wt.WAS), nil)
			c.hosts = append(c.hosts, bt.Hosts...)
		}
	}
	pipes := edge.NewPipeNetwork()
	return c.edgeTiers(pipes, tr, func(target string, accept acceptor) error {
		pipes.Register(target, accept)
		return nil
	})
}

func (c *cluster) buildWire(cfg core.Config, tr *tracer) error {
	pt, err := core.NewPylonTier(cfg)
	if err != nil {
		return err
	}
	tr.watchKV(pt.KV, len(cfg.Regions)*cfg.KVNodesPerRegion)
	pylonSrv, err := serveCtrl("pylon", tr, func(conn *ctrl.Conn) { ctrl.ServePylon(conn, pt.Pylon, nil) })
	if err != nil {
		return err
	}
	c.onClose(pylonSrv.close)
	pylonClient := func(name string) (*ctrl.PylonClient, error) {
		var pc *ctrl.PylonClient
		err := pylonSrv.dial(name, func(conn *ctrl.Conn) { pc = ctrl.NewPylonClient(conn) })
		return pc, err
	}

	pc, err := pylonClient("was->pylon")
	if err != nil {
		return err
	}
	wt, err := core.NewWASTier(cfg, nil, tr.publisher(pc), nil)
	if err != nil {
		return err
	}
	wasSrv, err := serveCtrl("was", tr, func(conn *ctrl.Conn) { ctrl.ServeWAS(conn, wt.WAS) })
	if err != nil {
		return err
	}
	c.onClose(wasSrv.close)
	wasClient := func(name string) (*ctrl.WASClient, error) {
		var wc *ctrl.WASClient
		err := wasSrv.dial(name, func(conn *ctrl.Conn) { wc = ctrl.NewWASClient(conn) })
		return wc, err
	}

	gen, err := wasClient("generator->was")
	if err != nil {
		return err
	}
	c.mutate, c.was, c.tao, c.pylon = gen, wt.WAS, wt.TAO, pt.Pylon
	for _, region := range regions {
		for i := 0; i < hostsPerRegion; i++ {
			prefix := fmt.Sprintf("%d-", i)
			id := prefix + "brass-" + region + "-0"
			hpc, err := pylonClient(id + "->pylon")
			if err != nil {
				return err
			}
			hwc, err := wasClient(id + "->was")
			if err != nil {
				return err
			}
			// The WAS halves live behind the WAS socket; this suite only
			// carries the BRASS halves (as in cmd/brnode's brass role).
			suite := apps.NewSuite(apps.NopRegistrar{})
			bt := core.NewBrassTier(cfg, region, prefix, suite,
				tr.pubsub(id, hpc), tr.backend(id, hwc), nil)
			c.hosts = append(c.hosts, bt.Hosts...)
		}
	}
	tcp := edge.NewTCPNetwork()
	c.onClose(tcp.Close)
	return c.edgeTiers(tcp, tr, func(target string, accept acceptor) error {
		_, err := tcp.Serve(target, accept)
		return err
	})
}

// ctrlServer accepts control connections on a loopback port and wires
// each one's services before starting it (cmd/brnode's newCtrlServer,
// minus the node-admin methods). It also owns the client ends dialed
// through it, so one close tears the whole link set down.
type ctrlServer struct {
	name  string
	tr    *tracer
	ln    net.Listener
	done  chan struct{}
	mu    sync.Mutex
	conns []*ctrl.Conn
}

func serveCtrl(name string, tr *tracer, setup func(*ctrl.Conn)) (*ctrlServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("ctrl listen for %s: %w", name, err)
	}
	s := &ctrlServer{name: name, tr: tr, ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			conn := ctrl.NewConn(name+"-ctrl", tr.conn(linkCtrl, nc), nil)
			setup(conn)
			s.track(conn)
			conn.Start()
		}
	}()
	return s, nil
}

func (s *ctrlServer) track(conn *ctrl.Conn) {
	s.mu.Lock()
	s.conns = append(s.conns, conn)
	s.mu.Unlock()
}

// dial opens a client connection to the server; setup registers the
// client's handlers (the Pylon client's deliver dispatcher) before Start.
func (s *ctrlServer) dial(name string, setup func(*ctrl.Conn)) error {
	nc, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		return fmt.Errorf("dial %s for %s: %w", s.name, name, err)
	}
	conn := ctrl.NewConn(name, s.tr.conn(linkCtrl, nc), nil)
	setup(conn)
	s.track(conn)
	conn.Start()
	return nil
}

func (s *ctrlServer) close() {
	_ = s.ln.Close()
	<-s.done
	s.mu.Lock()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for _, conn := range conns {
		_ = conn.Close()
	}
}
