package burst

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// TestQueueFlushCoalescesOneFrame queues a payload and a rewrite, flushes,
// and asserts the client receives them as ONE batch: the payload surfaces
// as an application event, the rewrite applies invisibly, in one frame.
func TestQueueFlushCoalescesOneFrame(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, err := cli.Subscribe(Subscribe{Header: Header{HdrApp: "lvc", HdrTopic: "/LVC/1"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	ss := srv.stream(0)

	if err := ss.Queue(PayloadDelta(7, []byte("comment"))); err != nil {
		t.Fatal(err)
	}
	if err := ss.QueueRewriteHeaderField("rl-state", "bucket=3"); err != nil {
		t.Fatal(err)
	}
	// Nothing on the wire until Flush.
	select {
	case b := <-st.Events:
		t.Fatalf("queued deltas leaked before Flush: %+v", b.Deltas)
	case <-time.After(50 * time.Millisecond):
	}
	// Server's stored request already reflects the queued rewrite.
	if got := ss.Request().Header["rl-state"]; got != "bucket=3" {
		t.Fatalf("server request not updated at queue time: %q", got)
	}

	deltas, err := ss.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 2 {
		t.Fatalf("Flush sent %d deltas, want 2", len(deltas))
	}
	batch := recvBatch(t, st)
	// The client surfaces only the payload; the rewrite applied invisibly
	// within the same batch.
	if len(batch) != 1 || string(batch[0].Payload) != "comment" {
		t.Fatalf("client batch = %+v", batch)
	}
	waitFor(t, "rewrite applied", func() bool {
		return st.Request().Header["rl-state"] == "bucket=3"
	})
	if st.LastSeq() != 7 {
		t.Errorf("LastSeq = %d, want 7", st.LastSeq())
	}
}

// TestFlushEmptyQueueIsNoop verifies Flush without queued deltas sends no
// frame.
func TestFlushEmptyQueueIsNoop(t *testing.T) {
	cli, _, srv := newClientServer(t)
	st, _ := cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/t"}})
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	deltas, err := srv.stream(0).Flush()
	if err != nil || deltas != nil {
		t.Fatalf("empty Flush = %v, %v; want nil, nil", deltas, err)
	}
	select {
	case b := <-st.Events:
		t.Fatalf("empty Flush produced a batch: %+v", b.Deltas)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestQueueTerminatedStream exercises Queue/Flush error paths on a
// terminated stream.
func TestQueueTerminatedStream(t *testing.T) {
	cli, _, srv := newClientServer(t)
	_, _ = cli.Subscribe(Subscribe{Header: Header{HdrTopic: "/t"}})
	waitFor(t, "stream", func() bool { return srv.stream(0) != nil })
	ss := srv.stream(0)
	if err := ss.Queue(PayloadDelta(1, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := ss.Terminate("done"); err != nil {
		t.Fatal(err)
	}
	if err := ss.Queue(PayloadDelta(2, []byte("y"))); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("Queue after terminate = %v, want ErrStreamClosed", err)
	}
	if _, err := ss.Flush(); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("Flush after terminate = %v, want ErrStreamClosed", err)
	}
	if err := ss.QueueRewrite(Header{"k": "v"}, nil); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("QueueRewrite after terminate = %v, want ErrStreamClosed", err)
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
	for _, p := range payloads {
		if err := ss.SendBatch(PayloadDelta(1, p)); err != nil {
			t.Fatal(err)
		}
		batch := recvBatch(t, st)
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
		for i := 0; i < rounds; i++ {
			batch := recvBatch(t, st)
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
