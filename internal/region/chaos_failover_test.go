// Satellite regression suite for BURST rewrite_request under partial
// partition: a stream whose home region dies is rewritten to a second
// region; when THAT rewrite target becomes unreachable too, a further
// rewrite lands it in a third region — with mailbox sequence continuity
// and a stable trace-stream identity throughout. Table-driven and seeded
// (BR_CHAOS_SEED), run by CI's chaos matrix alongside internal/faults.
package region_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/faults"
	"bladerunner/internal/region"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
)

func seedFromEnv(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("BR_CHAOS_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("BR_CHAOS_SEED=%q: %v", v, err)
		}
		return seed
	}
	return 1
}

func waitOr(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// seqRecorder drains a stream's channels, tracking received sequences.
type seqRecorder struct {
	mu   sync.Mutex
	seqs map[uint64]bool
	done sync.WaitGroup
}

func record(st *device.Stream) *seqRecorder {
	r := &seqRecorder{seqs: make(map[uint64]bool)}
	r.done.Add(1)
	go func() {
		defer r.done.Done()
		for d, ok := st.Next(); ok; d, ok = st.Next() {
			var m apps.MessagePayload
			if d.Type != burst.DeltaPayload || json.Unmarshal(d.Payload, &m) != nil {
				continue
			}
			r.mu.Lock()
			r.seqs[m.Seq] = true
			r.mu.Unlock()
		}
	}()
	return r
}

func (r *seqRecorder) hasAll(n uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for s := uint64(1); s <= n; s++ {
		if !r.seqs[s] {
			return false
		}
	}
	return true
}

// TestChaosRewriteUnderPartialPartition drives one receiver stream through
// one or two region failures. Each case cuts the stream's CURRENT serving
// region (resolved live from the sticky header), so the double-failover
// case exercises exactly the paper's hard path: the first rewrite's target
// later becomes unreachable and a second rewrite to the remaining region
// must succeed, with every mailbox sequence 1..K delivered exactly where
// the device expects it and the trace identity never changing.
func TestChaosRewriteUnderPartialPartition(t *testing.T) {
	baseSeed := seedFromEnv(t)
	cases := []struct {
		name string
		// failovers is how many times the serving region is cut under the
		// stream. 1 = simple geo-failover; 2 = rewrite target unreachable,
		// third region must take over.
		failovers int
	}{
		{name: "single-failover", failovers: 1},
		{name: "double-failover-to-third-region", failovers: 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			seed := baseSeed*10 + int64(tc.failovers)
			goroutinesBefore := runtime.NumGoroutine()

			cfg := core.DefaultConfig()
			cfg.Regions = []string{"us-east", "eu-west", "ap-south"}
			cfg.POPs = 3
			cfg.Graph.Users = 100
			cfg.Graph.BlockProb = 0
			cfg.Geo = &region.Config{
				Latency: sim.Uniform{Lo: 50 * time.Microsecond, Hi: 300 * time.Microsecond},
				ReplLag: sim.Uniform{Lo: 500 * time.Microsecond, Hi: 2 * time.Millisecond},
				Seed:    seed,
			}
			c := core.MustNewCluster(cfg, nil)
			fn := faults.NewFaultNetwork(c.Net, nil, seed)
			rf := faults.NewRegionFaults(fn, c.Gate, c.Topo)

			// Author homed ap-south (92 % 3 == 2): with the receiver's home
			// (eu-west) cut first and us-east the deterministic first
			// failover target, ap-south is the one region never cut in
			// either case — the author must outlive the schedule.
			author := c.NewDevice(socialgraph.UserID(92))
			uid := socialgraph.UserID(13) // home eu-west
			recv := c.NewDeviceVia(fn, device.Config{
				User:        uid,
				Backoff:     faults.BackoffPolicy{Base: 10 * time.Millisecond, Max: 160 * time.Millisecond},
				BackoffSeed: seed,
			})
			if err := recv.Connect(); err != nil {
				t.Fatal(err)
			}
			st, err := recv.Subscribe(apps.AppMessenger, "messenger", nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := record(st)
			traceID := st.Request().Header[burst.HdrTraceStream]

			out, err := author.Mutate(fmt.Sprintf(`createThread(members: "92,%d")`, uid))
			if err != nil {
				t.Fatal(err)
			}
			var thread uint64
			if err := json.Unmarshal(out, &thread); err != nil {
				t.Fatalf("createThread replied %q: %v", out, err)
			}

			servingRegion := func() string {
				host := st.Request().Header[burst.HdrStickyBRASS]
				if host == "" {
					return ""
				}
				return c.Gate.RegionOf(host)
			}
			waitOr(t, "initial home-region attach", func() bool {
				return servingRegion() == "eu-west"
			})

			var sent uint64
			send := func(label string) {
				t.Helper()
				if _, err := author.Mutate(fmt.Sprintf(
					`sendMessage(threadID: %d, text: "%s")`, thread, label)); err != nil {
					t.Fatal(err)
				}
				sent++
			}

			send("pre-failover")
			waitOr(t, "baseline delivery", func() bool { return rec.hasAll(sent) })

			cutSoFar := map[string]bool{}
			for hop := 1; hop <= tc.failovers; hop++ {
				target := servingRegion()
				if target == "" || cutSoFar[target] {
					t.Fatalf("hop %d: no live serving region to cut (got %q)", hop, target)
				}
				rf.CutRegion(target)
				cutSoFar[target] = true

				waitOr(t, fmt.Sprintf("hop %d: rewrite to a healthy region", hop), func() bool {
					r := servingRegion()
					return r != "" && !cutSoFar[r] && c.Topo.RegionUp(r)
				})
				// Seq continuity after every hop: everything sent so far,
				// plus one sent THROUGH the new serving region, arrives
				// with no gap.
				send(fmt.Sprintf("after-hop-%d", hop))
				waitOr(t, fmt.Sprintf("hop %d: gap-free view", hop),
					func() bool { return rec.hasAll(sent) })
			}

			if tc.failovers == 2 {
				// Two of three regions are dark; only ap-south remains.
				if got := servingRegion(); got != "ap-south" {
					t.Errorf("after double failover serving region = %q, want ap-south", got)
				}
			}
			if got := st.Request().Header[burst.HdrTraceStream]; got != traceID {
				t.Errorf("trace identity changed across rewrites: %q → %q", traceID, got)
			}

			recv.Close()
			author.Close()
			rec.done.Wait()
			c.Close()
			waitOr(t, "goroutines drained", func() bool {
				runtime.GC()
				return runtime.NumGoroutine() <= goroutinesBefore+3
			})
		})
	}
}
