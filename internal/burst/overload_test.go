package burst

import "testing"

// A stalled client queue sheds payload in place, oldest first: the control
// delta riding with a shed payload keeps its slot, and the queue holds no more
// payload batches than its bound (its control-only batches come on top).
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
	if err := st.Cancel(""); err != nil {
		t.Fatal(err)
	}

	var flows []string
	var prev uint64
	batches, payloads := 0, 0
	for rc, ok := st.Next(); ok; rc, ok = st.Next() {
		batches++
		for _, d := range rc.Deltas {
			switch d.Type {
			case DeltaFlowStatus:
				if payloads > 0 {
					t.Fatalf("%q behind %d payloads: a shed moved control", d.FlowDetail, payloads)
				}
				flows = append(flows, d.FlowDetail)
			case DeltaPayload:
				if d.Seq <= prev || d.Seq <= uint64(total+1) {
					t.Fatalf("payload %d after %d: the queue kept an older payload than it shed", d.Seq, prev)
				}
				prev = d.Seq
				payloads++
			}
		}
	}
	if len(flows) != 1 || flows[0] != "pressure" {
		t.Errorf("flow statuses %q, want the control delta alone", flows)
	}
	if prev != last || payloads > eventBuffer || batches > eventBuffer+len(flows) {
		t.Errorf("%d batches, %d payloads up to %d: want at most %d payload batches beside the control, the newest up to %d",
			batches, payloads, prev, eventBuffer, last)
	}
	if int(cli.Dropped.Value())+payloads != int(last) {
		t.Errorf("Dropped = %d beside %d payloads kept of %d", cli.Dropped.Value(), payloads, last)
	}
}
