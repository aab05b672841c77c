package bladerunner

import (
	"bytes"
	"flag"
	"io"
	"sync"
	"testing"

	"bladerunner/internal/apps"
	"bladerunner/internal/bench"
	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// TestAllocContracts holds the hot paths to the allocation counts they
// were built to: each body is the benchmark of the same name, run for a
// fixed 2000 iterations so one-time warm-up (pool fills, map growth, a
// GC's pool refills) amortizes below one per op and nothing larger can
// hide. The publish bodies run with the overload plane admitting and the
// region plane routing, and with tracing off. The durlog append and
// megadevice apply rows live beside their benchmarks
// (internal/durlog.TestAppendDoesNotAllocate,
// internal/megadevice.TestApplyPayloadDoesNotAllocate).
func TestAllocContracts(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc contracts: 2000 measured iterations per path, and the race detector allocates")
	}
	benchtime := flag.Lookup("test.benchtime").Value
	defer benchtime.Set(benchtime.String())
	if err := benchtime.Set("2000x"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		body  func(*testing.B)
		limit int64
		why   string
	}{
		{"PylonPublish", bench.PylonPublish, 0, "cached fan-out, token-bucket refill and per-link enqueue all run in place"},
		{"HotTopicFanout", bench.HotTopicFanout, 0, "1000 subscribers are served from the subscriber cache"},
		{"BURSTFrameEncode", bench.BURSTFrameEncode, 0, "header and payload go into one pooled buffer"},
		{"BURSTFrameDecode", bench.BURSTFrameDecode, 2, "the owning read: the frame buffer and the []Delta that aliases it"},
		{"BURSTSessionReceive", sessionReceive, 0, "a session lends its handler the payload in place in its read buffer"},
		{"BURSTRelayHop", relayHop, 1, "the batch is decoded into a pooled lease and released after the re-encode; room for a pool refill after a GC"},
		{"BURSTDeviceReceive", deviceReceive, 2, "a consumer that never releases, as the device: one lease and its bytes per batch, what the frame buffer and the []Delta cost before leases"},
		{"PylonPublishWire", bench.PylonPublishWire, 4, "the topic string and the one-byte result, plus pool refills after a GC"},
		{"CtrlCheckVisibility", bench.CtrlCheckVisibilityWire, 2, "params in a pooled buffer, event shared through the memo; room for pool refills only"},
		{"BURSTResumeBatchDecode", resumeBatchDecode, 4, "the []Delta, the patch map's two, the one copy of the patch both values slice; resume-seq and cursor decode to the package constants"},
		{"WASParseField", bench.WASParseField, 0, "a mutation and a subscription expression are scanned in place: name and values are substrings, arguments sit in the FieldCall"},
		{"WASMutateFeedComment", bench.WASMutateFeedComment, 7, "the resolver's own work: two formatted ids, the TAO object and its sorted bag (the resolver's literal stays on its stack), the association, the topic, the boxed and encoded result; no parse, Ctx or closure allocation, and the event carries no map"},
		{"BURSTSubscribeHop", subscribeHop, 5, "the stream, its header map's two, the one copy of the payload its strings slice; room for one"},
		{"BURSTResumeBatchApply", resumeBatchApply, 1, "the one copy of the patch both values slice: the lease brings its own deltas, bytes and patch map, and merging into a header that has both keys allocates nothing"},
		{"BRASSEventHandOff", bench.BRASSEventHandOff, 0, "Host.Deliver ranges the stored instance list, the event rides the loop queue as a value task, StreamsForTopic hands out the stored stream list"},
		{"BRASSStreamOpenClose", streamOpenClose, 11, "the subscribe hop's four, the cancel reason's copy, the Stream and its close reason, the instance's and host's copy-on-write topic lists, the WAS's topic slice and string; open and close ride the loop as value tasks, the topic set sits in the Stream, the kvstore writes pick replicas on the stack (17 before: the topic-set map's two, two closures, a replica slice per write)"},
		{"PylonSubscribeChurn", bench.PylonSubscribeChurn, 0, "both quorum writes pick their replicas on the stack, and every map they touch already holds the key (2 before: a replica slice per write)"},
		{"EdgeRelayOpenClose", bench.EdgeRelayOpenClose, 16, "a relay leg is its ClientStream alone, with no stored request and no channel, and the device's stream has no channel; the rest is the two subscribe hops' decode, the relay and its goroutine (20 before: a 256-slot channel's two on each client stream, the leg's header clone's two)"},
		{"PylonSlowPublish", bench.PylonSlowPublish, 3, "the response slice, the first responder's view, read in place, and the cache's handles; the replicas agree, so nothing merges (7 before: the subscribe's and the read's replica slices, a view map's two, the Members copy)"},
	} {
		res := testing.Benchmark(c.body)
		if res.N != 2000 {
			t.Errorf("%s: ran %d iterations, want 2000 (a failed body reports 0)", c.name, res.N)
			continue
		}
		got := res.AllocsPerOp()
		t.Logf("%-24s %d allocs/op (%d over %d ops), contract <= %d", c.name, got, res.MemAllocs, res.N, c.limit)
		if got > c.limit {
			t.Errorf("%s: %d allocs/op, contract is <= %d (%s)", c.name, got, c.limit, c.why)
		}
	}
}

// msgWire is the frame a peer's SendMsg(t, 1, v) puts on the wire.
func msgWire(b *testing.B, t burst.FrameType, v any) []byte {
	tap := &wireTap{closed: make(chan struct{})}
	enc := burst.NewSession("enc", tap, burst.HandlerFuncs{})
	defer enc.Close()
	if err := enc.SendMsg(t, 1, v); err != nil {
		b.Fatal(err)
	}
	return tap.written
}

// batchWire is the frame a peer's SendBatch(deltas...) on stream 1 puts on
// the wire.
func batchWire(b *testing.B, deltas ...burst.Delta) []byte {
	return msgWire(b, burst.FrameBatch, burst.Batch{Deltas: deltas})
}

// resumeBatchWire is Messenger's per-delivery batch — the payload and the
// rewrite patching both resume tokens — as the frame client stream 1 reads.
func resumeBatchWire(b *testing.B) []byte {
	return batchWire(b,
		burst.PayloadDelta(41, []byte(`{"seq":41,"thread":1,"author":7,"text":"hi"}`)),
		burst.RewriteDelta(burst.Header{burst.HdrResumeSeq: "41", burst.HdrCursor: "1.41"}, nil))
}

// sessionReceive is what every hop pays to take a batch frame off the wire
// before it looks inside: header parsed and payload lent in place.
func sessionReceive(b *testing.B) {
	tap := &wireTap{wire: resumeBatchWire(b), next: make(chan struct{}), closed: make(chan struct{})}
	seen := make(chan int)
	sess := burst.NewSession("rx", tap, burst.HandlerFuncs{OnFrame: func(f burst.Frame) { seen <- len(f.Payload) }})
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tap.next <- struct{}{}
		if n := <-seen; n != len(tap.wire)-13 {
			b.Fatalf("handler saw %d payload bytes of %d", n, len(tap.wire)-13)
		}
	}
}

// payloadBatchTap feeds its reader hot_fanout's batch, a single payload delta
// with a 256-byte body, on stream 1.
func payloadBatchTap(b *testing.B) *wireTap {
	return &wireTap{wire: batchWire(b, burst.PayloadDelta(7, bytes.Repeat([]byte("x"), 256))),
		next: make(chan struct{}), closed: make(chan struct{})}
}

// relayHop is one relay's whole turn on hot_fanout's batch, a single payload
// delta: frame in, decoded into a lease, queued on the client stream and
// taken by Next, re-encoded downstream with SendBatch, lease released.
func relayHop(b *testing.B) {
	up := payloadBatchTap(b)
	cli := burst.NewClient("relay->up", up, nil)
	defer cli.Close()
	cli.Relay = true
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrApp: "feed"}})
	if err != nil {
		b.Fatal(err)
	}
	// The downstream stream: a peer that sends this one subscribe frame and
	// takes whatever it is sent.
	opened := make(chan *burst.ServerStream, 1)
	down := &wireTap{wire: up.written, next: make(chan struct{}, 1), closed: make(chan struct{})}
	srv := burst.NewServerSession("down->relay", down, burst.ServerHandlerFuncs{
		Subscribe: func(st *burst.ServerStream, _ burst.Subscribe) { opened <- st },
	})
	defer srv.Close()
	down.next <- struct{}{}
	ds := <-opened
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		up.next <- struct{}{}
		rc, _ := st.Next()
		if len(rc.Deltas) != 1 || len(rc.Deltas[0].Payload) != 256 {
			b.Fatalf("relay saw %+v", rc.Deltas)
		}
		if err := ds.SendBatch(rc.Deltas...); err != nil {
			b.Fatal(err)
		}
		rc.Release()
	}
	if down.sent != b.N {
		b.Fatalf("%d frames went downstream, want %d", down.sent, b.N)
	}
}

// deviceReceive is relayHop's frame at the end of the line: the device hands
// the deltas on to the app and never releases, so the garbage collector takes
// each lease.
func deviceReceive(b *testing.B) {
	tap := payloadBatchTap(b)
	cli := burst.NewClient("device", tap, nil)
	defer cli.Close()
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrApp: "feed"}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tap.next <- struct{}{}
		if rc, _ := st.Next(); len(rc.Deltas) != 1 || len(rc.Deltas[0].Payload) != 256 {
			b.Fatalf("device saw %+v", rc.Deltas)
		}
	}
}

// subscribeHop is what one hop pays to open a stream: the benchmark's
// three-key subscribe frame through a ServerSession to its handler, then a
// cancel (no reason: nothing to copy) that keeps the stream table at one entry.
func subscribeHop(b *testing.B) {
	open := msgWire(b, burst.FrameSubscribe, burst.Subscribe{Header: burst.Header{
		burst.HdrApp: "feedcomments", burst.HdrSubscription: "feedPostComments(postID: 17)", burst.HdrUser: "9"}})
	hop := &wireTap{wire: append(open, msgWire(b, burst.FrameCancel, burst.Cancel{})...),
		next: make(chan struct{}), closed: make(chan struct{})}
	seen := make(chan int)
	srv := burst.NewServerSession("hop", hop, burst.ServerHandlerFuncs{
		Subscribe: func(_ *burst.ServerStream, sub burst.Subscribe) { seen <- len(sub.Header) },
		Cancel:    func(*burst.ServerStream, burst.Cancel) { seen <- 0 },
	})
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop.next <- struct{}{}
		if n, c := <-seen, <-seen; n != 3 || c != 0 {
			b.Fatalf("handler saw a %d-key subscribe, then %d", n, c)
		}
	}
}

// streamOpenClose is a scroll's BRASS half: a feed stream's subscribe
// through a host's ServerSession, resolved by an in-process WAS and
// registered with Pylon and its kvstore, then its cancel, which unwinds all
// of it. The stream table, the topic's maps and its replicas' sets are warm
// after the first lap.
func streamOpenClose(b *testing.B) {
	pyl := pylon.MustNew(pylon.DefaultConfig(), bench.NewKV())
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 100, MeanFriends: 5, Seed: 1})
	w := was.New(tao.MustNewStore(tao.DefaultConfig(), nil), graph, pyl, nil)
	host := brass.NewHost(brass.HostConfig{ID: "open-host", StickyRouting: true}, pyl, w, nil)
	defer host.Close()
	closed := make(chan string)
	host.RegisterApp(closeSignal{apps.NewSuite(w).FeedComments, closed})
	open := msgWire(b, burst.FrameSubscribe, burst.Subscribe{Header: burst.Header{
		burst.HdrApp: apps.AppFeedComments, burst.HdrSubscription: "feedPostComments(postID: 17)", burst.HdrUser: "9"}})
	hop := &wireTap{wire: append(open, msgWire(b, burst.FrameCancel, burst.Cancel{Reason: "scrolled"})...),
		next: make(chan struct{}), closed: make(chan struct{})}
	host.AcceptSession("open", hop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop.next <- struct{}{}
		if reason := <-closed; reason != "cancelled: scrolled" {
			b.Fatalf("the stream closed with %q", reason)
		}
	}
	if got := host.StreamsOpened.Value(); got != int64(b.N) {
		b.Fatalf("%d streams opened, want %d", got, b.N)
	}
}

// closeSignal is an application whose instances send each stream's close
// reason on closed once the application has closed it.
type closeSignal struct {
	brass.Application
	closed chan string
}

func (a closeSignal) NewInstance(rt *brass.Runtime) brass.AppInstance {
	return closeSignaler{a.Application.NewInstance(rt), a.closed}
}

type closeSignaler struct {
	brass.AppInstance
	closed chan string
}

func (in closeSignaler) OnStreamClose(st *brass.Stream, reason string) {
	in.AppInstance.OnStreamClose(st, reason)
	in.closed <- reason
}

func resumeBatchDecode(b *testing.B) {
	payload := resumeBatchWire(b)[13:] // behind the frame header
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := burst.DecodeBatch(payload)
		if err != nil || len(batch.Deltas) != 2 || len(batch.Deltas[1].Header) != 2 {
			b.Fatalf("decoded %+v, %v", batch, err)
		}
	}
}

func resumeBatchApply(b *testing.B) {
	tap := &wireTap{wire: resumeBatchWire(b), next: make(chan struct{}), closed: make(chan struct{})}
	cli := burst.NewClient("device", tap, nil)
	defer cli.Close()
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp: "messenger", burst.HdrUser: "7", burst.HdrResumeSeq: "40", burst.HdrCursor: "1.40"}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tap.next <- struct{}{}
		batch, _ := st.Next()
		if len(batch.Deltas) != 1 || batch.Deltas[0].Seq != 41 {
			b.Fatalf("device saw %+v, want the payload alone", batch.Deltas)
		}
		batch.Release()
	}
	if st.HeaderField(burst.HdrCursor) != "1.41" || st.HeaderField(burst.HdrApp) != "messenger" {
		b.Fatalf("patch not merged: %+v", st.Request().Header)
	}
}

// wireTap is a transport end that records the first write to it and counts
// them all, and hands its reader one copy of wire per token on next (never,
// with a nil next).
type wireTap struct {
	written, wire []byte
	sent          int
	next, closed  chan struct{}
	once          sync.Once
}

func (w *wireTap) Write(p []byte) (int, error) {
	if w.sent++; w.sent == 1 {
		w.written = append(w.written, p...)
	}
	return len(p), nil
}

func (w *wireTap) Read(p []byte) (int, error) {
	select {
	case <-w.next:
		return copy(p, w.wire), nil // a session reads into 32 KiB: the frame fits
	case <-w.closed:
		return 0, io.EOF
	}
}

func (w *wireTap) Close() error {
	w.once.Do(func() { close(w.closed) })
	return nil
}
