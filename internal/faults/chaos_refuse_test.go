package faults_test

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/faults"
	"bladerunner/internal/socialgraph"
)

// TestRefusedUpstreamReopensUnderBackoff refuses every BRASS host under a
// live Messenger stream for a window, then heals them. No relay ends the
// stream: each hands the loss down, and the device reopens it from its stored
// request under the stream's backoff, further apart each time the POP reaches
// no upstream, until a reopen lands and replays every seq from the cursor.
func TestRefusedUpstreamReopensUnderBackoff(t *testing.T) {
	const base = 5 * time.Millisecond
	goroutinesBefore := runtime.NumGoroutine()
	cfg := core.DefaultConfig()
	cfg.Graph.Users = 100
	cfg.Graph.BlockProb = 0
	c := core.MustNewCluster(cfg, nil)
	author := c.NewDevice(socialgraph.UserID(90))
	recv := c.NewDeviceVia(c.Net, device.Config{
		User:    13,
		Backoff: faults.BackoffPolicy{Base: base, NoJitter: true},
	})
	if err := recv.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := recv.Subscribe(apps.AppMessenger, "messenger", nil)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu     sync.Mutex
		seqs   = map[uint64]bool{}
		losses []time.Time // when the app heard each upstream-lost marker
		ended  bool
		done   sync.WaitGroup
	)
	done.Add(1)
	go func() {
		defer done.Done()
		for d, ok := st.Next(); ok; d, ok = st.Next() {
			mu.Lock()
			switch {
			case d.Flow == burst.FlowDegraded && d.FlowDetail == burst.UpstreamLostDetail:
				losses = append(losses, time.Now())
			case d.Type == burst.DeltaPayload:
				var m apps.MessagePayload
				if json.Unmarshal(d.Payload, &m) == nil {
					seqs[m.Seq] = true
				}
			}
			mu.Unlock()
		}
		mu.Lock()
		ended = true
		mu.Unlock()
	}()
	hasAll := func(n uint64) bool {
		mu.Lock()
		defer mu.Unlock()
		for s := uint64(1); s <= n; s++ {
			if !seqs[s] {
				return false
			}
		}
		return true
	}

	thread := newThread(t, author, 90, 13)
	var sent uint64
	send := func(label string) {
		t.Helper()
		if _, err := author.Mutate(fmt.Sprintf(`sendMessage(threadID: %d, text: "%s")`, thread, label)); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	send("before")
	waitFor(t, "the first message", func() bool { return hasAll(sent) })
	// The resume point rides the stored request as the stream's cursor.
	waitFor(t, "the stream's cursor", func() bool { return st.Request().Header[burst.HdrCursor] != "" })

	// Every BRASS host refuses, and the sessions to them die.
	setDown := func(down bool) {
		for _, h := range c.Hosts {
			c.Net.SetDown(down, h.ID())
		}
	}
	setDown(true)
	for i := 0; i < 3; i++ {
		send(fmt.Sprintf("refused-%d", i))
	}
	const window = 400 * time.Millisecond
	time.Sleep(window)
	mu.Lock()
	during := append([]time.Time(nil), losses...)
	mu.Unlock()
	setDown(false)
	send("healed")
	waitFor(t, "every seq after the heal", func() bool { return hasAll(sent) })

	// One reopen per Base would be ~window/base of them; under the backoff
	// they double apart: 5, 10, 20, 40, 80, 160 ms.
	if len(during) < 3 || len(during) > 12 {
		t.Errorf("the app heard %d upstream losses in %v, want 3..12: reopens paced by the backoff", len(during), window)
	}
	var widest time.Duration
	gaps := make([]time.Duration, 0, len(during))
	for i := 1; i < len(during); i++ {
		gaps = append(gaps, during[i].Sub(during[i-1]).Round(time.Millisecond))
		widest = max(widest, during[i].Sub(during[i-1]))
	}
	t.Logf("%d upstream losses in the window, gaps %v", len(during), gaps)
	if widest < 8*base {
		t.Errorf("the widest gap between reopens is %v, want >= %v: the backoff did not grow", widest, 8*base)
	}
	mu.Lock()
	if ended {
		t.Error("the stream ended: a relay gave up on it")
	}
	mu.Unlock()

	recv.Close()
	author.Close()
	done.Wait()
	c.Close()
	waitFor(t, "goroutines drained", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutinesBefore+3
	})
}
