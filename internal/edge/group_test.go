package edge

import (
	"io"
	"sync"
	"testing"
)

// TestSetDownGroupAtomic pins the half-cut regression: a grouped cut must
// never be observable partially applied. A toggler flips a 4-target group
// up and down, one SetDown call a flip, while a checker snapshots the
// group's down flags under one lock acquisition; any snapshot where some
// targets are down and others up is the racy per-target-loop behaviour one
// call over the group rules out.
func TestSetDownGroupAtomic(t *testing.T) {
	n := NewPipeNetwork()
	targets := []string{"brass-r-0", "brass-r-1", "proxy-r-0", "pop-r-0"}
	for _, target := range targets {
		n.Register(target, func(rwc io.ReadWriteCloser) { _ = rwc })
	}

	const iterations = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		down := true
		for i := 0; i < iterations; i++ {
			n.SetDown(down, targets...)
			down = !down
		}
		close(stop)
	}()

	mixed := 0
	for {
		select {
		case <-stop:
			wg.Wait()
			if mixed > 0 {
				t.Fatalf("observed %d half-cut snapshots (some targets down, some up)", mixed)
			}
			return
		default:
		}
		n.mu.Lock()
		states := make([]bool, len(targets))
		for i, target := range targets {
			states[i] = n.down[target]
		}
		n.mu.Unlock()
		first := states[0]
		for _, s := range states[1:] {
			if s != first {
				mixed++
				break
			}
		}
	}
}

// TestSetDownGroupSeversAndHeals checks a grouped SetDown keeps the
// one-target semantics: taking a group down severs every established
// connection to its members and refuses new dials; healing the group
// restores dialability without resurrecting the severed connections.
func TestSetDownGroupSeversAndHeals(t *testing.T) {
	n := NewPipeNetwork()
	targets := []string{"a", "b"}
	for _, target := range targets {
		n.Register(target, func(rwc io.ReadWriteCloser) { _ = rwc })
	}
	conns := make([]io.ReadWriteCloser, 0, len(targets))
	for _, target := range targets {
		c, err := n.Dial(target)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}

	n.SetDown(true, targets...)
	for i, c := range conns {
		if _, err := c.Write([]byte("x")); err == nil {
			t.Errorf("write on severed conn to %s succeeded", targets[i])
		}
	}
	for _, target := range targets {
		if _, err := n.Dial(target); err == nil {
			t.Errorf("dial to down target %s succeeded", target)
		}
	}

	n.SetDown(false, targets...)
	for _, target := range targets {
		c, err := n.Dial(target)
		if err != nil {
			t.Errorf("dial to healed target %s: %v", target, err)
			continue
		}
		_ = c.Close()
	}
}
