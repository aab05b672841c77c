package main

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"bladerunner/internal/edge"
)

// The -debug-addr endpoint answers the allocation profile and the counter
// page, the latter with one line per counter and gauge a POP keeps and the
// process's CPU time and peak RSS.
func TestDebugEndpointServesAllocsAndCounters(t *testing.T) {
	pop := edge.NewProxy("pop-0", edge.NewPipeNetwork(), edge.StaticRouter("brass"))
	defer pop.Close()
	pop.StreamsRelayed.Add(3)
	pop.ActiveStreams.Set(2)
	bound, stop, err := serveDebug("127.0.0.1:0", map[string]any{"pop-0": pop})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + bound + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, %v", path, resp.Status, err)
		}
		return string(body)
	}
	if allocs := get("/debug/pprof/allocs?debug=1"); !strings.Contains(allocs, "heap profile:") {
		t.Errorf("/debug/pprof/allocs answered %.80q", allocs)
	}
	counters := get("/debug/counters")
	for _, line := range []string{"pop-0.StreamsRelayed 3\n", "pop-0.ActiveStreams 2\n", "pop-0.ShedNotices 0\n"} {
		if !strings.Contains(counters, line) {
			t.Errorf("/debug/counters lacks %q:\n%s", line, counters)
		}
	}
	// The process lines: a count each, and the test has used some memory.
	process := map[string]int64{}
	for _, line := range strings.Split(counters, "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "process.") {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				t.Errorf("%q is not a count", line)
			}
			process[name] = n
		}
	}
	for _, name := range []string{"process.cpu_user_us", "process.cpu_sys_us", "process.max_rss_kb"} {
		if _, ok := process[name]; !ok {
			t.Errorf("/debug/counters lacks %s:\n%s", name, counters)
		}
	}
	if process["process.max_rss_kb"] == 0 {
		t.Errorf("process.max_rss_kb reads 0")
	}
}
