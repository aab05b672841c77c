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
// and /debug/counters, a plain-text dump of the counters the role keeps. It
// is off by default; the flag is not part of the JSON config.
//
// Bootstrap config is static: flags, or -config pointing at a JSON file
// with the same keys (flags win). There is no dynamic membership — the
// paper's Bladerunner leans on Facebook's deployment machinery for that,
// and this reproduction keeps the seam honest by keeping bootstrap dumb.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

// bootstrap is the static per-process configuration. JSON keys match the
// flag names.
type bootstrap struct {
	Role   string `json:"role"`
	Region string `json:"region"`
	// Listen is the BURST listen address (brass, pop).
	Listen string `json:"listen"`
	// Ctrl is the control-protocol listen address (every role).
	Ctrl string `json:"ctrl"`
	// PylonAddr is the pylon tier's ctrl address (was, brass).
	PylonAddr string `json:"pylon"`
	// WASAddr is the WAS tier's ctrl address (brass).
	WASAddr string `json:"was"`
	// BrassAddrs maps brass target names to BURST addresses (pop), in
	// "name=addr,name=addr" flag form.
	BrassAddrs map[string]string `json:"brass"`
	// Hosts is the BRASS host count in this process.
	Hosts int `json:"hosts"`
	// Users sizes the synthetic social graph (was).
	Users int `json:"users"`
	// Seed seeds the social graph (was).
	Seed int64 `json:"seed"`
	// Durlog enables the durable per-topic log on BRASS hosts.
	Durlog bool `json:"durlog"`
	// Procs is the process count for -role all.
	Procs int `json:"procs"`
}

func defaults() bootstrap {
	return bootstrap{
		Region: "us-east",
		Listen: "127.0.0.1:0",
		Ctrl:   "127.0.0.1:0",
		Hosts:  1,
		Users:  100,
		Seed:   1,
		Durlog: true,
		Procs:  4,
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("brnode: ")

	def := defaults()
	role := flag.String("role", "", "tier to run: pylon|was|brass|pop|all")
	region := flag.String("region", def.Region, "region label")
	listen := flag.String("listen", def.Listen, "BURST listen address (brass, pop)")
	ctrlAddr := flag.String("ctrl", def.Ctrl, "control-protocol listen address")
	pylonAddr := flag.String("pylon", "", "pylon ctrl address (was, brass)")
	wasAddr := flag.String("was", "", "WAS ctrl address (brass)")
	brassAddrs := flag.String("brass", "", "brass targets for a pop: name=addr,name=addr")
	hosts := flag.Int("hosts", def.Hosts, "BRASS hosts in this process")
	users := flag.Int("users", def.Users, "social graph size (was)")
	seed := flag.Int64("seed", def.Seed, "social graph seed (was)")
	durlog := flag.Bool("durlog", def.Durlog, "enable the BRASS durable log")
	procs := flag.Int("procs", def.Procs, "process count for -role all")
	confPath := flag.String("config", "", "JSON bootstrap config file (flags override)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and /debug/counters on this address (single roles; off when empty)")
	flag.Parse()

	cfg := def
	if *confPath != "" {
		raw, err := os.ReadFile(*confPath)
		if err != nil {
			log.Fatalf("read -config: %v", err)
		}
		if err := json.Unmarshal(raw, &cfg); err != nil {
			log.Fatalf("parse -config %s: %v", *confPath, err)
		}
	}
	// Flags the user actually set override the file.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	override := func(name string, apply func()) {
		if set[name] || *confPath == "" {
			apply()
		}
	}
	override("role", func() {
		if *role != "" {
			cfg.Role = *role
		}
	})
	override("region", func() { cfg.Region = *region })
	override("listen", func() { cfg.Listen = *listen })
	override("ctrl", func() { cfg.Ctrl = *ctrlAddr })
	override("pylon", func() {
		if *pylonAddr != "" {
			cfg.PylonAddr = *pylonAddr
		}
	})
	override("was", func() {
		if *wasAddr != "" {
			cfg.WASAddr = *wasAddr
		}
	})
	override("brass", func() {
		if *brassAddrs != "" {
			m, err := parseTargets(*brassAddrs)
			if err != nil {
				log.Fatal(err)
			}
			cfg.BrassAddrs = m
		}
	})
	override("hosts", func() { cfg.Hosts = *hosts })
	override("users", func() { cfg.Users = *users })
	override("seed", func() { cfg.Seed = *seed })
	override("durlog", func() { cfg.Durlog = *durlog })
	override("procs", func() { cfg.Procs = *procs })

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
		err = runAll(cfg)
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
	if *debugAddr != "" {
		bound, stop, err := serveDebug(*debugAddr, n.counters)
		if err != nil {
			log.Fatalf("-debug-addr: %v", err)
		}
		n.onDrain(stop)
		log.Printf("debug: http://%s/debug/pprof/ and /debug/counters", bound)
	}

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
