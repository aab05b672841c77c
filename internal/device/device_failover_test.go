package device

import (
	"io"
	"testing"
	"time"

	"bladerunner/internal/edge"
	"bladerunner/internal/faults"
)

// TestReconnectResetsStreamBackoff guards the geo-failover fix in
// reconnect(): a successful session attach rewinds each stream's
// per-stream retry backoff BEFORE resubscribing. Without the reset, a
// stream whose retries escalated against a dead POP/region carries the
// saturated delay into its first retry on the healthy one, stretching
// failover by up to the backoff cap.
//
// The observable is the stream backoff's next delay after an attach whose
// direct resubscribe fails: pop-flaky accepts then immediately drops every
// connection, so Connect succeeds but the resubscribe send errors and arms
// a per-stream retry. With the reset in place that leaves the attempt
// counter at exactly 1 (the failed retry's own Next), so the next delay is
// attempt 1's; pre-fix it would sit at escalation+1.
func TestReconnectResetsStreamBackoff(t *testing.T) {
	n := edge.NewPipeNetwork()
	a := &fakePOP{name: "pop-a"}
	n.Register("pop-a", a.accept)
	n.Register("pop-flaky", func(rwc io.ReadWriteCloser) { rwc.Close() })
	d := New(Config{
		User:    7,
		POPs:    []string{"pop-a", "pop-flaky"},
		Backoff: faults.BackoffPolicy{Base: 10 * time.Millisecond, Max: 3 * time.Second, NoJitter: true},
	}, n, newWAS(t), nil)
	t.Cleanup(d.Close)

	if err := d.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := d.Subscribe("app", "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial stream on pop-a", func() bool { return a.stream(0) != nil })

	// Simulate retry history against a dying region: the stream's backoff
	// has escalated well past base by the time the device finally moves.
	for i := 0; i < 6; i++ {
		st.bo.Next()
	}
	if got := st.bo.Next(); got != 640*time.Millisecond {
		t.Fatalf("escalated delay = %v, want 10ms·2^6 = 640ms (attempt 6)", got)
	}

	// Simulate a processed session loss, then drive one reconnect cycle.
	// POP rotation lands on pop-flaky: the attach succeeds, the transport
	// drops, the direct resubscribe fails and arms a per-stream retry.
	d.mu.Lock()
	d.client = nil
	d.connected = false
	d.mu.Unlock()
	d.reconnect()

	if d.Reconnects.Value() < 1 {
		t.Fatal("reconnect did not attach")
	}
	// The reset-before-resubscribe invariant: the attach rewound the
	// stream backoff, so the failed resubscribe's retry was armed at
	// base-scale delay — attempt 1, not the escalated 8 — and the next
	// delay is attempt 1's 20ms, not the 3s cap.
	if got := st.bo.Next(); got > 20*time.Millisecond {
		t.Fatalf("stream backoff delay = %v after attach, want <= 20ms (attempt <= 1): "+
			"reconnect must reset per-stream backoff before resubscribing", got)
	}

	// And the stream recovers promptly: the flaky session's loss rotates
	// the device back onto the healthy POP and the pending base-delay
	// retry (or the reconnect itself) re-establishes the stream.
	waitFor(t, "stream recovered on pop-a", func() bool { return a.stream(1) != nil })
}
