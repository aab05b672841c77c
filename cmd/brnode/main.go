// Command brnode runs ONE Bladerunner tier as a standalone OS process,
// speaking BURST (device/stream traffic) and the internal/ctrl binary
// control protocol over real TCP. Four processes make a cluster:
//
//	brnode -role pylon -ctrl 127.0.0.1:7101
//	brnode -role was   -ctrl 127.0.0.1:7102 -pylon 127.0.0.1:7101
//	brnode -role brass -listen 127.0.0.1:7103 -ctrl 127.0.0.1:7104 \
//	       -pylon 127.0.0.1:7101 -was 127.0.0.1:7102
//	brnode -role pop   -listen 127.0.0.1:7105 -ctrl 127.0.0.1:7106 \
//	       -brass brass-us-east-0=127.0.0.1:7103
//
// or let the launcher wire the ports:
//
//	brnode -role all -procs 4
//
// which spawns one child per tier on loopback ephemeral ports, prints a
// CHILD line per process and CLUSTER-READY when the quickstart path is
// dialable, supervises the children (an unexpectedly dead child is
// restarted on its old addresses — the POP-kill failover path), and
// drains everything on SIGTERM.
//
// Every role serves the node admin methods (node.ping, node.drain) on its
// -ctrl listener; SIGTERM and node.drain share the same graceful-drain
// path: stop accepting, close live sessions cleanly (peers observe
// io.EOF, not an error), exit 0.
//
// A single role started with -debug-addr host:port also serves, on that
// address, net/http/pprof under /debug/pprof/ (e.g. /debug/pprof/allocs)
// and /debug/counters, a plain-text dump of the counters the role keeps and
// of the process's CPU time and peak RSS, and names the bound address on its
// READY line. It is off by default. The launcher takes -debug-addr host:0
// and starts every child with it, so each binds a port of its own on host,
// which its CHILD line reports as debug=host:port.
//
// Bootstrap config is static and comes from flags only; every BRASS host
// runs the durable log. There is no dynamic membership — the paper's
// Bladerunner leans on Facebook's deployment machinery for that, and this
// reproduction keeps the seam honest by keeping bootstrap dumb.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

// bootstrap is the static per-process configuration, one field per flag.
type bootstrap struct {
	Role   string
	Region string
	// Listen is the BURST listen address (brass, pop).
	Listen string
	// Ctrl is the control-protocol listen address (every role).
	Ctrl string
	// PylonAddr is the pylon tier's ctrl address (was, brass).
	PylonAddr string
	// WASAddr is the WAS tier's ctrl address (brass).
	WASAddr string
	// BrassAddrs maps brass target names to BURST addresses (pop), in
	// "name=addr,name=addr" flag form.
	BrassAddrs map[string]string
	// Hosts is the BRASS host count in this process.
	Hosts int
	// Users sizes the synthetic social graph (was).
	Users int
	// Seed seeds the social graph (was).
	Seed int64
	// Procs is the process count for -role all.
	Procs int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("brnode: ")

	var cfg bootstrap
	flag.StringVar(&cfg.Role, "role", "", "tier to run: pylon|was|brass|pop|all")
	flag.StringVar(&cfg.Region, "region", "us-east", "region label")
	flag.StringVar(&cfg.Listen, "listen", "127.0.0.1:0", "BURST listen address (brass, pop)")
	flag.StringVar(&cfg.Ctrl, "ctrl", "127.0.0.1:0", "control-protocol listen address")
	flag.StringVar(&cfg.PylonAddr, "pylon", "", "pylon ctrl address (was, brass)")
	flag.StringVar(&cfg.WASAddr, "was", "", "WAS ctrl address (brass)")
	brassAddrs := flag.String("brass", "", "brass targets for a pop: name=addr,name=addr")
	flag.IntVar(&cfg.Hosts, "hosts", 1, "BRASS hosts in this process")
	flag.IntVar(&cfg.Users, "users", 100, "social graph size (was)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "social graph seed (was)")
	flag.IntVar(&cfg.Procs, "procs", 4, "process count for -role all")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and /debug/counters on this address (-role all: host:0, a port per child; off when empty)")
	flag.Parse()
	if *brassAddrs != "" {
		m, err := parseTargets(*brassAddrs)
		if err != nil {
			log.Fatal(err)
		}
		cfg.BrassAddrs = m
	}

	var (
		n   *node
		err error
	)
	switch cfg.Role {
	case "pylon":
		n, err = runPylon(cfg)
	case "was":
		n, err = runWAS(cfg)
	case "brass":
		n, err = runBrass(cfg)
	case "pop":
		n, err = runPOP(cfg)
	case "all":
		err = runAll(cfg, *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		return
	default:
		log.Fatalf("unknown -role %q (want pylon|was|brass|pop|all)", cfg.Role)
	}
	if err != nil {
		log.Fatal(err)
	}
	var debugBound string
	if *debugAddr != "" {
		bound, stop, err := serveDebug(*debugAddr, n.counters)
		if err != nil {
			log.Fatalf("-debug-addr: %v", err)
		}
		n.onDrain(stop)
		debugBound = bound
		log.Printf("debug: http://%s/debug/pprof/ and /debug/counters", bound)
	}
	ready(cfg.Role, n, debugBound)

	// SIGTERM/SIGINT and a remote node.drain share one graceful path.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case <-sigc:
	case <-n.drained:
	}
	n.drain()
	log.Printf("role=%s drained", cfg.Role)
}

// parseTargets parses "name=addr,name=addr".
func parseTargets(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad -brass entry %q (want name=addr)", part)
		}
		out[name] = addr
	}
	return out, nil
}
