package burst

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"bladerunner/internal/burst/bursttest"
)

// Property: for any sequence of payload/rewrite deltas pushed by the
// server, the client's LastSeq equals the maximum payload sequence seen and
// its stored request reflects exactly the last rewrite.
func TestClientStateConvergesProperty(t *testing.T) {
	type op struct {
		IsRewrite bool
		Seq       uint16
		Val       uint8
	}
	f := func(ops []op) bool {
		if len(ops) > 40 {
			ops = ops[:40]
		}
		cli, _, srv := newClientServer(t)
		st, err := cli.Subscribe(Subscribe{Header: Header{HdrApp: "p", "k": "init"}})
		if err != nil {
			return false
		}
		waitDeadline := time.Now().Add(5 * time.Second)
		for srv.stream(0) == nil {
			if time.Now().After(waitDeadline) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		ss := srv.stream(0)

		var maxSeq uint64
		lastVal := "init"
		payloads := 0
		for _, o := range ops {
			if o.IsRewrite {
				lastVal = fmt.Sprintf("v%d", o.Val)
				if err := ss.RewriteHeaderField("k", lastVal); err != nil {
					return false
				}
			} else {
				if err := ss.SendBatch(PayloadDelta(uint64(o.Seq), []byte("x"))); err != nil {
					return false
				}
				if uint64(o.Seq) > maxSeq {
					maxSeq = uint64(o.Seq)
				}
				payloads++
			}
		}
		// Drain the payload events so all batches have been applied.
		ev := bursttest.Events(t, st)
		for i := 0; i < payloads; i++ {
			select {
			case <-ev:
			case <-time.After(5 * time.Second):
				return false
			}
		}
		// Rewrites are applied in order; wait for the last one.
		deadline := time.Now().Add(5 * time.Second)
		for st.Request().Header["k"] != lastVal {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return st.LastSeq() == maxSeq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: batches are delivered atomically — the client never observes a
// partial batch, and batch boundaries are preserved in order.
func TestBatchAtomicityProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) > 20 {
			sizes = sizes[:20]
		}
		cli, _, srv := newClientServer(t)
		st, err := cli.Subscribe(Subscribe{Header: Header{HdrApp: "p"}})
		if err != nil {
			return false
		}
		deadline := time.Now().Add(5 * time.Second)
		for srv.stream(0) == nil {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		ss := srv.stream(0)

		var sent [][]Delta
		for _, raw := range sizes {
			n := int(raw%5) + 1
			batch := make([]Delta, n)
			for i := range batch {
				batch[i] = PayloadDelta(uint64(len(sent)*10+i), []byte{byte(i)})
			}
			if err := ss.SendBatch(batch...); err != nil {
				return false
			}
			sent = append(sent, batch)
		}
		ev := bursttest.Events(t, st)
		for _, want := range sent {
			select {
			case got := <-ev:
				if len(got.Deltas) != len(want) {
					return false // split or merged batch
				}
				for i := range want {
					if got.Deltas[i].Seq != want[i].Seq {
						return false
					}
				}
			case <-time.After(5 * time.Second):
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
