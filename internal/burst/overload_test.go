package burst

import "testing"

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
