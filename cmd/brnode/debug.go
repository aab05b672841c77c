package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
	"sort"
	"syscall"

	"bladerunner/internal/metrics"
)

// serveDebug serves the opt-in -debug-addr endpoint on addr: net/http/pprof
// under /debug/pprof/ (allocs, heap, profile, goroutine, ...) and, at
// /debug/counters, a plain-text dump of the counters the role already keeps:
// one "name.Field value" line for every exported metrics.Counter and
// metrics.Gauge field of each object in counters (a proxy, a BRASS host,
// Pylon, the WAS), then the process's CPU time and peak RSS. It returns the
// bound address and a stop function.
func serveDebug(addr string, counters map[string]any) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/counters", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeCounters(w, counters)
		writeProcess(w)
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// writeCounters writes the counter lines of every object in counters, by
// name, each object's fields in declaration order.
func writeCounters(w io.Writer, counters map[string]any) {
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := reflect.ValueOf(counters[name]).Elem()
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			switch c := v.Field(i).Addr().Interface().(type) {
			case *metrics.Counter:
				fmt.Fprintf(w, "%s.%s %d\n", name, v.Type().Field(i).Name, c.Value())
			case *metrics.Gauge:
				fmt.Fprintf(w, "%s.%s %d\n", name, v.Type().Field(i).Name, c.Value())
			}
		}
	}
}

// writeProcess writes the CPU time and peak RSS getrusage(RUSAGE_SELF) reports.
func writeProcess(w io.Writer) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return
	}
	fmt.Fprintf(w, "process.cpu_user_us %d\nprocess.cpu_sys_us %d\nprocess.max_rss_kb %d\n",
		ru.Utime.Nano()/1e3, ru.Stime.Nano()/1e3, ru.Maxrss)
}
