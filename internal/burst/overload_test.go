package burst

import (
	"strings"
	"testing"

	"bladerunner/internal/burst/bursttest"
)

// drain hands out st's batches until its queue is empty, passing each delta
// to each, and returns how many batches it took.
func drain(st *ClientStream, each func(Delta)) (batches int) {
	for {
		st.mu.Lock()
		n := st.n
		st.mu.Unlock()
		if n == 0 {
			return batches
		}
		rc, _ := st.Next()
		for _, d := range rc.Deltas {
			each(d)
		}
		rc.Release()
		batches++
	}
}

// A stalled client queue sheds payload in place, oldest first: the first shed
// leaves its marker where the payload was, the control delta riding with a
// later shed payload keeps its slot, the queue holds no more payload batches
// than its bound (its control-only batches come on top), and reading it down
// queues the episode's recovery behind the payloads it kept.
func TestClientQueueShedsPayloadNotControl(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, err := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/t"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	ss := srv.stream(0)

	// Nobody calls Next: fill the queue, then push one more batch carrying
	// a control delta, then keep pushing payloads so that batch's payload is
	// shed too — its flow delta must stay.
	total := eventBuffer + 1
	for i := 0; i < total; i++ {
		if err := ss.SendBatch(PayloadDelta(uint64(i+1), []byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.SendBatch(
		PayloadDelta(uint64(total+1), []byte("y")),
		FlowStatusDelta(FlowDegraded, "pressure"),
	); err != nil {
		t.Fatal(err)
	}
	last := uint64(total + 1 + eventBuffer)
	for seq := uint64(total + 2); seq <= last; seq++ {
		if err := ss.SendBatch(PayloadDelta(seq, []byte("z"))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every batch applied", func() bool { return st.LastSeq() == last })

	rule := bursttest.NewGapRule(t)
	var flows []string
	var prev uint64
	payloads := 0
	batches := drain(st, func(d Delta) {
		switch d.Type {
		case DeltaFlowStatus:
			if payloads > 0 && d.FlowDetail != QueueRecoveredDetail {
				t.Fatalf("%q behind %d payloads: a shed moved control", d.FlowDetail, payloads)
			}
			flows = append(flows, strings.Clone(d.FlowDetail)) // borrowed from the lease drain releases
			rule.Flow(d.FlowDetail)
		case DeltaPayload:
			if d.Seq <= prev || d.Seq <= uint64(total+1) {
				t.Fatalf("payload %d after %d: the queue kept an older payload than it shed", d.Seq, prev)
			}
			rule.Payload(d.Seq)
			prev = d.Seq
			payloads++
		}
	})
	rule.Close()
	if len(flows) != 3 || flows[0] != QueueShedDetail || flows[1] != "pressure" || flows[2] != QueueRecoveredDetail {
		t.Errorf("flow statuses %q, want the shed marker, the control delta, then the recovery", flows)
	}
	if prev != last || payloads > eventBuffer || batches > eventBuffer+len(flows) {
		t.Errorf("%d batches, %d payloads up to %d: want at most %d payload batches beside the control, the newest up to %d",
			batches, payloads, prev, eventBuffer, last)
	}
	if int(cli.Dropped.Value())+payloads != int(last) {
		t.Errorf("Dropped = %d beside %d payloads kept of %d", cli.Dropped.Value(), payloads, last)
	}
}

// A shed episode is announced once and closed once: the first shed leaves a
// FlowDegraded marker at the head, and Next draining the queue to half its
// bound queues the matching FlowRecovered behind what is left. A second
// overflow is a second episode with its own pair.
func TestQueueShedEpisodeIsAnnouncedAndClosed(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, err := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/t"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	ss := srv.stream(0)

	var seq uint64
	flood := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			seq++
			if err := ss.SendBatch(PayloadDelta(seq, []byte("x"))); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "every batch applied", func() bool { return st.LastSeq() == seq })
	}
	rule := bursttest.NewGapRule(t)
	var flows []string
	payloads := 0
	for episode := 1; episode <= 2; episode++ {
		flood(eventBuffer + 10)
		drain(st, func(d Delta) {
			if d.Type == DeltaFlowStatus {
				flows = append(flows, strings.Clone(d.FlowDetail))
				rule.Flow(d.FlowDetail)
			} else {
				payloads++
				rule.Payload(d.Seq)
			}
		})
		rule.Close()
		want := []string{QueueShedDetail, QueueRecoveredDetail}
		if got := flows[len(flows)-2:]; len(flows) != 2*episode || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("episode %d: flow statuses %q, want each episode's %q", episode, flows, want)
		}
	}
	if int(cli.Dropped.Value())+payloads != int(seq) {
		t.Errorf("Dropped = %d beside %d payloads handed out of %d", cli.Dropped.Value(), payloads, seq)
	}
}
