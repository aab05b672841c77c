package burst

import (
	"fmt"
	"testing"
)

// A bounded pending buffer sheds its OLDEST payload deltas when Queue
// exceeds the limit; control deltas keep their place (and may exceed the
// bound), and every shed delta is observed by the onShed hook.
func TestServerStreamPendingLimitShedsOldestPayload(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, err := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/t"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	ss := srv.stream(0)

	var shed []Delta
	ss.SetPendingLimit(3, func(d Delta) { shed = append(shed, d) })

	if err := ss.Queue(
		PayloadDelta(1, []byte("a")),
		PayloadDelta(2, []byte("b")),
	); err != nil {
		t.Fatal(err)
	}
	if err := ss.QueueRewriteHeaderField("k", "v"); err != nil {
		t.Fatal(err)
	}
	// Over the limit: the two oldest payloads shed; the rewrite (control)
	// survives even though it is older than the incoming payloads.
	if err := ss.Queue(
		PayloadDelta(3, []byte("c")),
		PayloadDelta(4, []byte("d")),
	); err != nil {
		t.Fatal(err)
	}
	if len(shed) != 2 || shed[0].Seq != 1 || shed[1].Seq != 2 {
		t.Fatalf("shed = %+v, want seqs 1 and 2", shed)
	}
	deltas, err := ss.Flush()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range deltas {
		if d.Type == DeltaPayload {
			got = append(got, fmt.Sprintf("p%d", d.Seq))
		} else {
			got = append(got, d.Type.String())
		}
	}
	if len(deltas) != 3 || deltas[0].Type != DeltaRewriteRequest ||
		deltas[1].Seq != 3 || deltas[2].Seq != 4 {
		t.Fatalf("flushed %v, want [rewrite p3 p4]", got)
	}
	batch := recvBatch(t, st)
	if len(batch) != 2 || batch[0].Seq != 3 || batch[1].Seq != 4 {
		t.Fatalf("client batch = %+v", batch)
	}
}

// Control-only overflow: when the buffer holds nothing but control
// deltas, the bound is exceeded rather than dropping any of them.
func TestServerStreamPendingLimitNeverShedsControl(t *testing.T) {
	cli, _, srv := newClientServer(t)
	if _, err := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/t"}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	ss := srv.stream(0)
	sheds := 0
	ss.SetPendingLimit(2, func(Delta) { sheds++ })
	for i := 0; i < 5; i++ {
		if err := ss.QueueRewriteHeaderField(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if sheds != 0 {
		t.Fatalf("shed %d control deltas", sheds)
	}
	deltas, err := ss.Flush()
	if err != nil || len(deltas) != 5 {
		t.Fatalf("Flush = %d deltas, %v; want all 5 control", len(deltas), err)
	}
}

// A stalled client buffer evicts the oldest batch but salvages its
// control deltas: payloads shed (counted), flow/rewrite/termination
// always reach the application in order.
func TestClientBufferEvictionSalvagesControl(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, err := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/t"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	ss := srv.stream(0)

	// Nobody reads st.Events: fill the buffer, then push one more batch
	// carrying a control delta, then keep pushing payloads so the control
	// batch itself gets evicted — its flow delta must be salvaged.
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
	for i := 0; i < eventBuffer; i++ {
		if err := ss.SendBatch(PayloadDelta(uint64(total+2+i), []byte("z"))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "drops counted", func() bool { return cli.Dropped.Value() > 0 })
	waitFor(t, "control salvaged", func() bool { return cli.CtlSalvaged.Value() >= 1 })

	// Drain everything: the degraded notice must still be in there.
	sawFlow := false
	for done := false; !done; {
		select {
		case batch := <-st.Events:
			for _, d := range batch.Deltas {
				if d.Type == DeltaFlowStatus && d.Flow == FlowDegraded {
					sawFlow = true
				}
			}
		default:
			done = true
		}
	}
	if !sawFlow {
		t.Fatal("FlowDegraded was lost under buffer pressure")
	}
}
