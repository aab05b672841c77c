// Chaos suite: seeded fault schedules driven against the full wired stack
// (devices → POPs → reverse proxies → BRASS → Pylon), asserting the paper's
// §4 failure axioms end to end — every faulted stream eventually reports
// FlowRecovered, mailbox sequence numbers resume monotonically with no
// gaps, and nothing leaks.
//
// The schedule for a run is fully determined by its seed (see
// TestChaosScheduleDeterministicPerSeed); CI runs the suite under -race for
// a small fixed seed matrix via BR_CHAOS_SEED.
package faults_test

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
	"bladerunner/internal/burst/bursttest"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/faults"
	"bladerunner/internal/socialgraph"
)

// chaosSeed returns the run's seed: BR_CHAOS_SEED if set, else 1.
func chaosSeed(t *testing.T) int64 {
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

func waitFor(t *testing.T, what string, cond func() bool) {
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

// TestChaosScheduleDeterministicPerSeed pins the reproducibility contract:
// a chaos run's fault schedule is a pure function of its seed.
func TestChaosScheduleDeterministicPerSeed(t *testing.T) {
	seed := chaosSeed(t)
	targets := []string{"pop-0", "pop-1"}
	a := faults.RandomPlan(seed, targets, 2*time.Second, 3)
	b := faults.RandomPlan(seed, targets, 2*time.Second, 3)
	if a.Schedule() != b.Schedule() {
		t.Fatalf("same seed produced different schedules:\n%s\nvs\n%s",
			a.Schedule(), b.Schedule())
	}
	if a.Len() == 0 {
		t.Fatal("empty plan")
	}
}

// streamWatcher reads a stream on its own goroutine, recording payload
// sequence numbers and sizes and flow events.
type streamWatcher struct {
	mu         sync.Mutex
	seqs       map[uint64]bool
	maxSeq     uint64
	minPayload int  // bytes in the shortest payload yet
	regressed  bool // a new max was followed by a smaller previously-unseen max
	recovered  int
	lastFlow   burst.FlowCode
	ended      bool // Next reported the stream over
	done       sync.WaitGroup
}

func watch(st *device.Stream) *streamWatcher {
	w := &streamWatcher{seqs: make(map[uint64]bool)}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		for d, ok := st.Next(); ok; d, ok = st.Next() {
			w.mu.Lock()
			if d.Type == burst.DeltaFlowStatus {
				if d.Flow == burst.FlowRecovered {
					w.recovered++
				}
				w.lastFlow = d.Flow
			} else {
				var m apps.MessagePayload
				_ = json.Unmarshal(d.Payload, &m)
				w.seqs[m.Seq] = true
				if w.minPayload == 0 || len(d.Payload) < w.minPayload {
					w.minPayload = len(d.Payload)
				}
				if m.Seq > w.maxSeq {
					w.maxSeq = m.Seq
				}
			}
			w.mu.Unlock()
		}
		w.mu.Lock()
		w.ended = true
		w.mu.Unlock()
	}()
	return w
}

// newThread has author create a Messenger thread with a and b as its members
// and returns its id. A reply that does not decode fails the test: thread 0
// would fail every later sendMessage instead.
func newThread(t *testing.T, author *device.Device, a, b socialgraph.UserID) uint64 {
	t.Helper()
	out, err := author.Mutate(fmt.Sprintf(`createThread(members: "%d,%d")`, a, b))
	if err != nil {
		t.Fatal(err)
	}
	var thread uint64
	if err := json.Unmarshal(out, &thread); err != nil {
		t.Fatalf("createThread replied %q: %v", out, err)
	}
	return thread
}

// payload returns the next payload st hands out, skipping flow statuses. It
// reports false if none comes within the given time or the stream ends.
func payload(t *testing.T, st *device.Stream, within time.Duration) (burst.Delta, bool) {
	t.Helper()
	ev := bursttest.Events(t, st)
	deadline := time.After(within)
	for {
		select {
		case d, ok := <-ev:
			if !ok {
				return d, false
			}
			if d.Type == burst.DeltaPayload {
				return d, true
			}
		case <-deadline:
			return burst.Delta{}, false
		}
	}
}

func (w *streamWatcher) hasAll(n uint64) bool { return len(w.missing(n, 1)) == 0 }

// missing returns the first seqs up to limit of 1..n the stream has not
// handed out.
func (w *streamWatcher) missing(n uint64, limit int) []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []uint64
	for s := uint64(1); s <= n && len(out) < limit; s++ {
		if !w.seqs[s] {
			out = append(out, s)
		}
	}
	return out
}

func (w *streamWatcher) snapshot() (recovered int, last burst.FlowCode) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recovered, w.lastFlow
}

func (w *streamWatcher) isEnded() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ended
}

// reconnected reports whether every device attached a new session since
// before, a snapshot of their Reconnects counters.
func reconnected(devices []*device.Device, before []int64) bool {
	for i, d := range devices {
		if d.Reconnects.Value() <= before[i] {
			return false
		}
	}
	return true
}

// reconnects snapshots every device's Reconnects counter.
func reconnects(devices []*device.Device) []int64 {
	out := make([]int64, len(devices))
	for i, d := range devices {
		out[i] = d.Reconnects.Value()
	}
	return out
}

// TestChaosRecovery runs a seeded fault schedule against the live stack,
// then a mass disconnect (every POP cut at once), and asserts full
// recovery: every stream reports FlowRecovered, every mailbox sequence
// 1..K arrives with no gaps, and no goroutines leak.
func TestChaosRecovery(t *testing.T) {
	seed := chaosSeed(t)
	goroutinesBefore := runtime.NumGoroutine()

	cfg := core.DefaultConfig()
	cfg.Graph.Users = 100
	cfg.Graph.BlockProb = 0
	c := core.MustNewCluster(cfg, nil)
	fn := faults.NewFaultNetwork(c.Net, nil)
	pops := c.POPTargets()

	const (
		nDevices  = 5
		authorUID = socialgraph.UserID(90)
	)
	author := c.NewDevice(authorUID)

	devices := make([]*device.Device, nDevices)
	streams := make([]*device.Stream, nDevices)
	watchers := make([]*streamWatcher, nDevices)
	threads := make([]uint64, nDevices)
	for i := 0; i < nDevices; i++ {
		uid := socialgraph.UserID(10 + i)
		devices[i] = c.NewDeviceVia(fn, device.Config{
			User: uid,
			// Fast backoff so the run settles quickly; jitter stays on so
			// the mass disconnect exercises decorrelated re-dials.
			Backoff:     faults.BackoffPolicy{Base: 10 * time.Millisecond, Max: 160 * time.Millisecond},
			BackoffSeed: seed*1000 + int64(i) + 1,
		})
		if err := devices[i].Connect(); err != nil {
			t.Fatal(err)
		}
		st, err := devices[i].Subscribe(apps.AppMessenger, "messenger", nil)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = st
		watchers[i] = watch(st)

		threads[i] = newThread(t, author, authorUID, uid)
	}
	waitFor(t, "all mailbox subscriptions", func() bool {
		for i := 0; i < nDevices; i++ {
			if len(c.Pylon.Subscribers(apps.MailboxTopic(socialgraph.UserID(10+i)))) < 1 {
				return false
			}
		}
		return true
	})

	send := func(round string) {
		t.Helper()
		for i := 0; i < nDevices; i++ {
			msg := fmt.Sprintf(`sendMessage(threadID: %d, text: "%s")`, threads[i], round)
			if _, err := author.Mutate(msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	var sent uint64

	// Baseline traffic before any fault.
	send("pre-chaos")
	sent++
	for i, w := range watchers {
		w := w
		waitFor(t, fmt.Sprintf("baseline delivery to device %d", i), func() bool { return w.hasAll(sent) })
	}

	// Seeded chaos window: random cut/heal pairs on the POPs while traffic
	// flows. The schedule is logged so a failing seed can be replayed.
	plan := faults.RandomPlan(seed, pops, 2*time.Second, 3)
	t.Logf("chaos schedule (seed %d):\n%s", seed, plan.Schedule())
	planDone := plan.Start(fn)
	defer planDone()
	horizon := plan.Horizon()
	mid := time.After(horizon / 2)
	<-mid
	send("mid-chaos")
	sent++
	time.Sleep(horizon/2 + 100*time.Millisecond)

	// Mass disconnect: every POP down at once, so every stream faults.
	before, resubs := reconnects(devices), make([]int64, len(devices))
	for i, d := range devices {
		resubs[i] = d.Resubscribes.Value()
	}
	for _, pop := range pops {
		fn.Cut(pop)
	}
	time.Sleep(100 * time.Millisecond)
	for _, pop := range pops {
		fn.Heal(pop)
	}
	waitFor(t, "all devices reconnected", func() bool { return reconnected(devices, before) })
	waitFor(t, "all streams resubscribed", func() bool {
		for i, d := range devices {
			if d.Resubscribes.Value() <= resubs[i] || watchers[i].isEnded() {
				return false
			}
			// The stream's serving host must hold a live Pylon interest.
			host := streams[i].Request().Header[burst.HdrStickyBRASS]
			if host == "" {
				return false
			}
			subs := c.Pylon.Subscribers(apps.MailboxTopic(socialgraph.UserID(10 + i)))
			found := false
			for _, s := range subs {
				if s == host {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	})

	// Post-recovery traffic: the resumed streams must deliver everything —
	// gaps closed by the mailbox catch-up, sequence numbers monotonic.
	send("post-chaos")
	sent++
	for i, w := range watchers {
		w := w
		waitFor(t, fmt.Sprintf("full mailbox on device %d after recovery", i),
			func() bool { return w.hasAll(sent) })
	}

	// Every stream that was faulted (all of them — the mass cut saw to it)
	// must have announced recovery, and recovery must be its final state.
	for i, w := range watchers {
		recovered, last := w.snapshot()
		if recovered == 0 {
			t.Errorf("stream %d never reported FlowRecovered", i)
		}
		if last != burst.FlowRecovered {
			t.Errorf("stream %d final flow state = %v, want FlowRecovered", i, last)
		}
	}
	if fn.InjectedCuts.Value() < int64(len(pops)) {
		t.Errorf("InjectedCuts = %d, want >= %d", fn.InjectedCuts.Value(), len(pops))
	}

	// Teardown and leak check: closing devices closes their channels, which
	// ends the watcher goroutines; the cluster teardown ends the rest.
	for _, d := range devices {
		d.Close()
	}
	author.Close()
	for _, w := range watchers {
		w.done.Wait()
	}
	c.Close()
	waitFor(t, "goroutines drained", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutinesBefore+3
	})
}
