package burst

import (
	"bytes"
	"testing"
	"time"

	"bladerunner/internal/burst/bursttest"
)

// TestSendBatchCoalescesOneFrame sends a payload and a rewrite in one
// SendBatch and asserts the client receives them as ONE batch: the payload
// surfaces as an application event, the rewrite applies invisibly, in one
// frame, and the server's own copy of the request is patched at send.
func TestSendBatchCoalescesOneFrame(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, err := cli.Subscribe(Subscribe{Header: Header{HdrApp: "lvc", HdrTopic: "/LVC/1"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	ss := srv.stream(0)

	if err := ss.SendBatch(
		PayloadDelta(7, []byte("comment")),
		RewriteDelta(Header{"rl-state": "bucket=3"}, nil),
	); err != nil {
		t.Fatal(err)
	}
	if got := ss.Request().Header["rl-state"]; got != "bucket=3" {
		t.Fatalf("server request not updated at send time: %q", got)
	}
	ev := bursttest.Events(t, st)
	batch := recvBatch(t, ev)
	// The client surfaces only the payload; the rewrite applied invisibly
	// within the same batch.
	if len(batch) != 1 || string(batch[0].Payload) != "comment" {
		t.Fatalf("client batch = %+v", batch)
	}
	if got := st.Request().Header["rl-state"]; got != "bucket=3" {
		t.Fatalf("rewrite not applied with its batch: %q", got)
	}
	if st.LastSeq() != 7 {
		t.Errorf("LastSeq = %d, want 7", st.LastSeq())
	}
	select {
	case b := <-ev:
		t.Fatalf("a second frame followed the batch: %+v", b.Deltas)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestSendMsgPooledEncoding pins the pooled encoder end to end: what
// SendMsg writes decodes to what was sent, including for values whose
// encoding exceeds the pool's retention cap.
func TestSendMsgPooledEncoding(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, _ := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/t"}})
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	ss := srv.stream(0)

	big := bytes.Repeat([]byte("x"), 2<<20) // > maxPooledBuf once encoded
	payloads := [][]byte{[]byte("small"), big}
	ev := bursttest.Events(t, st)
	for _, p := range payloads {
		if err := ss.SendBatch(PayloadDelta(1, p)); err != nil {
			t.Fatal(err)
		}
		batch := recvBatch(t, ev)
		if len(batch) != 1 || !bytes.Equal(batch[0].Payload, p) {
			t.Fatalf("payload of len %d corrupted through pooled encoder (got len %d)",
				len(p), len(batch[0].Payload))
		}
	}
}

// TestPooledBufferReuseIsSafe hammers concurrent sends over one session to
// let the race detector catch any buffer-reuse-before-write bug.
func TestPooledBufferReuseIsSafe(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st1, _ := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/a"}})
	st2, _ := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/b"}})
	waitFor(t, "streams", func() bool { return srv.stream(1) != nil })
	ssA, ssB := srv.stream(0), srv.stream(1)

	const rounds = 200
	done := make(chan error, 2)
	send := func(ss *ServerStream, tag byte) {
		var err error
		for i := 0; i < rounds && err == nil; i++ {
			err = ss.SendBatch(PayloadDelta(uint64(i+1), bytes.Repeat([]byte{tag}, 64)))
		}
		done <- err
	}
	go send(ssA, 'a')
	go send(ssB, 'b')

	check := func(st *ClientStream, tag byte) {
		ev := bursttest.Events(t, st)
		for i := 0; i < rounds; i++ {
			batch := recvBatch(t, ev)
			for _, d := range batch {
				for _, c := range d.Payload {
					if c != tag {
						t.Fatalf("cross-stream payload corruption: got %q want %q", c, tag)
					}
				}
			}
		}
	}
	check(st1, 'a')
	check(st2, 'b')
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
