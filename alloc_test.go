package bladerunner

import (
	"bytes"
	"encoding/binary"
	"flag"
	"io"
	"net"
	"strconv"
	"sync"
	"testing"
	"unsafe"

	"bladerunner/internal/apps"
	"bladerunner/internal/bench"
	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/frame"
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
		{"BURSTRelayHop", relayHop, 1, "the batch is decoded into a pooled lease, forwarded on the downstream session's writer and released after the re-encode; room for a pool refill after a GC"},
		{"BURSTRelayControlHop", relayControlHop, 0, "a relay leg's last batch, a flow_status with a detail and a termination with a reason: the lease lends both strings to the re-encode (2 before: a copy of each)"},
		{"BURSTServerSend", serverSend, 0, "SendBatch encodes into the session's pending buffer from the frame pool, and the writer's round writes it and pools the buffer"},
		{"BURSTDeviceReceive", deviceReceive, 2, "a consumer that never releases, as the device: one lease and its bytes per batch, what the frame buffer and the []Delta cost before leases"},
		{"PylonPublishWire", bench.PylonPublishWire, 4, "the topic string and the one-byte result, plus pool refills after a GC"},
		{"CtrlCheckVisibility", bench.CtrlCheckVisibilityWire, 2, "params in a pooled buffer, event shared through the memo; room for pool refills only"},
		{"BURSTResumeBatchDecode", resumeBatchDecode, 4, "the []Delta, the patch map's two, the one copy of the patch its cursor slices; the key decodes to the package constant"},
		{"WASParseField", bench.WASParseField, 0, "a mutation and a subscription expression are scanned in place: name and values are substrings, arguments sit in the FieldCall"},
		{"WASMutateFeedComment", bench.WASMutateFeedComment, 1, "the answer's digits (the TAO object and its text sit in the table's slot, the post's topic is the one its app's table built, the resolver's literal stays on its stack, its ids are typed); no parse, Ctx or closure allocation, and the event carries no map (2 before: the stored object; 3 before that: the topic formatted per comment; 6 before that: two formatted ids and a sorted bag of its own; 7 before that: the answer a boxed uint64 through json.Marshal)"},
		{"WASResolveFeedSubscription", resolveFeedSubscription, 0, "an open of an already-named post: the expression is scanned in place and the resolver returns the list its app's table holds (2 before: the topic string and its one-element slice)"},
		{"BURSTSubscribeHop", subscribeHop, 1, "the stream, whose inline pairs hold the request and whose inline bytes hold the one copy of the header they slice (2 before: that copy a string of its own; 4 before that: a header map's two)"},
		{"BURSTResumeBatchApply", resumeBatchApply, 0, "the lease brings its own deltas, bytes and patch map and lends the patch, whose new cursor the stored request copies into its room, a fresh 128 bytes once its patches fill one (1 before: the decoder's copy of the patch)"},
		{"EdgeRelayRewriteHop", bench.EdgeRelayRewriteHop, 0, "the relay's lease lends the patch to Forward, its downstream SendBatch copies the new cursor into the stored request's room, a fresh 128 bytes once its patches fill one, re-encodes and releases; the server and the device do the same (2 before: the relay's and the device's copy of each patch)"},
		{"BRASSEventHandOff", bench.BRASSEventHandOff, 0, "Host.Deliver ranges the stored instance list, the event rides the loop queue as a value task, StreamsForTopic hands out the stored stream list"},
		{"BRASSPayloadMiss", payloadMiss, 1, "the payload's own bytes, encoded once by the Feed resolver's AppendJSON: the privacy check, the LRU miss, the TAO read and the Put into the slot it evicts allocate nothing (4 before: the boxed payload, json.Marshal's copy, the LRU entry, the fetch flight)"},
		{"BRASSFetchPush", fetchPush, 0, "the viewer's privacy check and the cache hit read in place, the app lends its resume patch from a buffer it formats the cursor into, send builds the payload and patch deltas on its stack array, the patch's new cursor is copied into the stored request's room, and SendBatch encodes into the session's pending buffer"},
		{"BRASSStreamOpenClose", streamOpenClose, 1, "the subscribe hop's one, the Stream, which holds its BURST stream; the WAS hands back the post's topic list its app's table built on the first open; the stream closes with a constant reason, so the borrowed cancel reason is not copied; open and close ride the loop as value tasks, the topic set sits in the Stream, the instance's and host's lists of a one-stream topic are the Stream's and the Instance's own, the kvstore writes pick replicas on the stack (2 before: the subscribe hop's stream an object of its own; 4 before that: the WAS's topic slice and string per open; 5 before that: the close reason, a copy of the cancel's; 8 before that: the header's copy, those two lists; 11 before that: a header map's two, the decoder's copy of the reason; 17 before that: the topic-set map's two, two closures, a replica slice per write)"},
		{"PylonSubscribeChurn", bench.PylonSubscribeChurn, 0, "both quorum writes pick their replicas on the stack, and every map they touch already holds the key (2 before: a replica slice per write)"},
		{"EdgeRelayOpenClose", bench.EdgeRelayOpenClose, 4, "the device's stream and its pairs, the upstream hop's stream, and the relay, which holds its downstream stream and its first leg, encoded from that stream's pairs; each hop's stream holds the header's one copy, with no stored request and no channel; the relay has no goroutine (the downstream session's writer forwards its leg) and passes the borrowed cancel reason on uncopied (5 before: the subscribe hop's stream an object of its own; 8 before that: each hop's header copy, the leg an object of its own; 13 before that: a header map's two at the device and at each hop; 16 before that: the relay goroutine's closure and room for one; 20 before that: a 256-slot channel's two on each client stream, the leg's header clone's two)"},
		{"PylonSlowPublish", bench.PylonSlowPublish, 2, "the first responder's view, read in place, and the cache's handles; the replica responses sit in an array on the publish's stack and the replicas agree, so nothing merges (3 before: the response slice; 7 before that: the subscribe's and the read's replica slices, a view map's two, the Members copy)"},
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
// rewrite patching its cursor — as the frame client stream 1 reads.
func resumeBatchWire(b *testing.B) []byte {
	return batchWire(b,
		burst.PayloadDelta(41, []byte(`{"seq":41,"thread":1,"author":7,"text":"hi"}`)),
		burst.RewriteDelta(burst.Header{burst.HdrCursor: "1.41"}, nil))
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
// delta: frame in, decoded into a lease, queued on the relay leg, which links
// itself onto the downstream session's ready list; the downstream writer
// hands it to the forwarder, which re-encodes it with SendBatch and releases
// the lease, and writes it.
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
	down := &wireTap{wire: up.written, next: make(chan struct{}, 1), closed: make(chan struct{}), wrote: make(chan struct{})}
	srv := burst.NewServerSession("down->relay", down, burst.ServerHandlerFuncs{
		Subscribe: func(st *burst.ServerStream) { opened <- st },
	})
	defer srv.Close()
	down.next <- struct{}{}
	ds := <-opened
	st.Forward(ds, &hopForwarder{ds})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		up.next <- struct{}{}
		<-down.wrote
	}
	if down.sent != b.N || !bytes.Equal(down.written, up.wire) {
		b.Fatalf("%d writes went downstream, want %d, the first %x, want the upstream frame %x",
			down.sent, b.N, down.written, up.wire)
	}
}

// relayControlHop is relayHop's turn on a leg's last batch, a flow_status
// with a detail and a termination with a reason, which ends the leg: each
// iteration opens a fresh leg with the timer stopped, and times the batch from
// the wire to the downstream write.
func relayControlHop(b *testing.B) {
	up := &wireTap{wire: batchWire(b, burst.FlowStatusDelta(burst.FlowRerouted, "stream re-established via brass-2"),
		burst.TerminationDelta("conversation deleted by its owner")), next: make(chan struct{}), closed: make(chan struct{})}
	cli := burst.NewClient("relay->up", up, nil)
	defer cli.Close()
	cli.Relay = true
	opened := make(chan *burst.ServerStream, 1)
	open := msgWire(b, burst.FrameSubscribe, burst.Subscribe{Header: burst.Header{burst.HdrApp: "feed"}})
	down := &wireTap{wire: open, next: make(chan struct{}, 1), closed: make(chan struct{}), wrote: make(chan struct{})}
	srv := burst.NewServerSession("down->relay", down, burst.ServerHandlerFuncs{
		Subscribe: func(st *burst.ServerStream) { opened <- st },
	})
	defer srv.Close()
	down.next <- struct{}{}
	ds := <-opened
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := cli.Subscribe(burst.Subscribe{})
		if err != nil {
			b.Fatal(err)
		}
		st.Forward(ds, &hopForwarder{ds})
		binary.BigEndian.PutUint64(up.wire[1:9], uint64(i+1)) // the client's (i+1)th stream
		b.StartTimer()
		up.next <- struct{}{}
		<-down.wrote
	}
	b.StopTimer()
	if down.sent != b.N || !bytes.Equal(down.written[frame.HeaderSize:], up.wire[frame.HeaderSize:]) {
		b.Fatalf("%d writes went downstream, want %d, the first %x, want the upstream batch %x",
			down.sent, b.N, down.written, up.wire)
	}
}

// hopForwarder forwards every batch unfiltered, as a relay forwards payload.
type hopForwarder struct{ down *burst.ServerStream }

func (f *hopForwarder) Forward(rc *burst.Received) {
	_ = f.down.SendBatch(rc.Deltas...)
	rc.Release()
}

// serverSend is a BRASS push of hot_fanout's batch: SendBatch encodes it into
// the session's pending buffer, and the writer's round writes it.
func serverSend(b *testing.B) {
	opened := make(chan *burst.ServerStream, 1)
	tap := &wireTap{wire: msgWire(b, burst.FrameSubscribe, burst.Subscribe{Header: burst.Header{burst.HdrApp: "feed"}}),
		next: make(chan struct{}, 1), closed: make(chan struct{}), wrote: make(chan struct{})}
	srv := burst.NewServerSession("brass", tap, burst.ServerHandlerFuncs{
		Subscribe: func(st *burst.ServerStream) { opened <- st },
	})
	defer srv.Close()
	tap.next <- struct{}{}
	st := <-opened
	payload := burst.PayloadDelta(7, bytes.Repeat([]byte("x"), 256))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.SendBatch(payload); err != nil {
			b.Fatal(err)
		}
		<-tap.wrote
	}
	if tap.sent != b.N || srv.Frames.Value() != int64(b.N) {
		b.Fatalf("%d writes of %d frames, want %d of each", tap.sent, srv.Frames.Value(), b.N)
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
// three-key subscribe frame through a ServerSession to its handler, which
// reads the keys from the stream, then a cancel that keeps the stream table at
// one entry.
func subscribeHop(b *testing.B) {
	open := msgWire(b, burst.FrameSubscribe, burst.Subscribe{Header: burst.Header{
		burst.HdrApp: "feedcomments", burst.HdrSubscription: "feedPostComments(postID: 17)", burst.HdrUser: "9"}})
	hop := &wireTap{wire: append(open, msgWire(b, burst.FrameCancel, burst.Cancel{})...),
		next: make(chan struct{}), closed: make(chan struct{})}
	seen := make(chan int)
	srv := burst.NewServerSession("hop", hop, burst.ServerHandlerFuncs{
		Subscribe: func(st *burst.ServerStream) {
			n := 0
			for _, k := range [...]string{burst.HdrApp, burst.HdrSubscription, burst.HdrUser} {
				if st.HeaderField(k) != "" {
					n++
				}
			}
			seen <- n
		},
		Cancel: func(*burst.ServerStream, burst.Cancel) { seen <- 0 },
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
		if reason := <-closed; reason != "cancelled" {
			b.Fatalf("the stream closed with %q", reason)
		}
	}
	if got := host.StreamsOpened.Value(); got != int64(b.N) {
		b.Fatalf("%d streams opened, want %d", got, b.N)
	}
}

// resolveFeedSubscription is a feed open's WAS half for a post the resolver
// has named before: the expression scanned, the resolver, the post's topic
// list.
func resolveFeedSubscription(b *testing.B) {
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 100, MeanFriends: 5, Seed: 1})
	w := was.New(tao.MustNewStore(tao.DefaultConfig(), nil), graph, nil, nil)
	apps.NewFeedComments(w)
	const expr = "feedPostComments(postID: 100017)"
	want := apps.PostTopic(100017)
	if _, err := w.ResolveSubscription(100, expr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topics, err := w.ResolveSubscription(100, expr)
		if err != nil || len(topics) != 1 || topics[0] != want {
			b.Fatalf("resolved %v, %v; want [%s]", topics, err, want)
		}
	}
}

// payloadMiss is a payload-cache miss on a full cache: an event naming a
// comment, under an ID the cache has not seen, through Host.Deliver to an
// app whose one stream fetches its payload — the viewer's privacy check, the
// LRU miss, the Feed resolver's TAO read and encode on an in-process WAS,
// and the Put that evicts the oldest entry.
func payloadMiss(b *testing.B) {
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 100, MeanFriends: 5, Seed: 1})
	w := was.New(tao.MustNewStore(tao.DefaultConfig(), nil), graph, nil, nil)
	apps.NewSuite(w)
	ref := w.TAO.ObjectAdd("comment", 7, 17, 0, tao.Props{{"text", "what a save!"}})
	const size = 64 // the host's payload cache capacity (brass payload.go)
	host := brass.NewHost(brass.HostConfig{ID: "miss-host"}, nil, w, nil)
	defer host.Close()
	app := &payloadFetcher{seen: make(chan int)}
	host.RegisterApp(app)
	cliConn, hostConn := net.Pipe()
	cli := burst.NewClient("miss-device", cliConn, nil)
	defer cli.Close()
	host.AcceptSession("miss", hostConn)
	if _, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp: apps.AppFeedComments, burst.HdrTopic: "/miss", burst.HdrUser: "9"}}); err != nil {
		b.Fatal(err)
	}
	<-app.seen
	want := len(apps.CommentPayload{CommentID: uint64(ref), VideoID: 17, Author: 7, Text: "what a save!"}.AppendJSON(nil))
	ev := pylon.Event{Topic: "/miss", Ref: uint64(ref), Author: 7}
	fetch := func(id int) {
		ev.ID = uint64(id)
		host.Deliver(ev)
		if n := <-app.seen; n != want {
			b.Fatalf("event %d: fetched %d payload bytes, want %d", id, n, want)
		}
	}
	for i := 0; i < size; i++ {
		fetch(i) // fills the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch(size + i)
	}
	if hits, misses := host.PayloadCacheHits.Value(), host.PayloadCacheMisses.Value(); hits != 0 || misses != int64(size+b.N) {
		b.Fatalf("%d payload-cache hits and %d misses, want 0 and %d", hits, misses, size+b.N)
	}
}

// fetchPush is the road from a privacy check to the wire on a warm cache:
// an event through Host.Deliver to an app whose one stream Fetches it — the
// viewer's check and a payload-cache hit — and Pushes it with Messenger's
// resume patch, its cursor new each time, through the host session's writer
// to its transport.
func fetchPush(b *testing.B) {
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 100, MeanFriends: 5, Seed: 1})
	w := was.New(tao.MustNewStore(tao.DefaultConfig(), nil), graph, nil, nil)
	apps.NewSuite(w)
	ref := w.TAO.ObjectAdd("comment", 7, 17, 0, tao.Props{{"text", "what a save!"}})
	host := brass.NewHost(brass.HostConfig{ID: "push-host"}, nil, w, nil)
	defer host.Close()
	app := &payloadFetcher{seen: make(chan int), patch: burst.Header{burst.HdrCursor: ""}}
	host.RegisterApp(app)
	tap := &wireTap{wire: msgWire(b, burst.FrameSubscribe, burst.Subscribe{Header: burst.Header{
		burst.HdrApp: apps.AppFeedComments, burst.HdrTopic: "/hot", burst.HdrUser: "9"}}),
		next: make(chan struct{}), closed: make(chan struct{}), wrote: make(chan struct{})}
	host.AcceptSession("push", tap)
	tap.next <- struct{}{}
	<-app.seen
	ev := pylon.Event{Topic: "/hot", ID: 1, Ref: uint64(ref), Author: 7}
	push := func() {
		host.Deliver(ev)
		if n := <-app.seen; n <= 0 {
			b.Fatalf("fetched %d payload bytes", n)
		}
		<-tap.wrote
	}
	push() // the one miss fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
	}
	if hits := host.PayloadCacheHits.Value(); hits != int64(b.N) || tap.sent != b.N+1 {
		b.Fatalf("%d payload-cache hits and %d writes, want %d and %d", hits, tap.sent, b.N, b.N+1)
	}
}

// payloadFetcher is an app under the Feed application's name whose streams
// fetch every event's payload and send its length on seen, -1 for a denial;
// with a patch set they push the payload first, and the patch with each of its
// keys set to the count of pushes, lent from tokens as Messenger lends its
// cursor. A stream that opens sends 0.
type payloadFetcher struct {
	rt     *brass.Runtime
	seen   chan int
	patch  burst.Header
	tokens []byte
	pushes uint64
}

func (a *payloadFetcher) Name() string                                    { return apps.AppFeedComments }
func (a *payloadFetcher) NewInstance(rt *brass.Runtime) brass.AppInstance { a.rt = rt; return a }
func (a *payloadFetcher) OnStreamClose(*brass.Stream, string)             {}

func (a *payloadFetcher) OnStreamOpen(st *brass.Stream) error {
	err := st.AddTopic(pylon.Topic(st.Header(burst.HdrTopic)))
	a.seen <- 0
	return err
}

func (a *payloadFetcher) OnEvent(ev pylon.Event) {
	for _, st := range a.rt.Instance().StreamsForTopic(ev.Topic) {
		n := -1
		if p, ok := st.Fetch(ev, ev.ID); ok {
			n = len(p.Bytes())
			if a.patch != nil {
				a.pushes++
				a.tokens = strconv.AppendUint(a.tokens[:0], a.pushes, 10)
				for k := range a.patch {
					a.patch[k] = unsafe.String(unsafe.SliceData(a.tokens), len(a.tokens))
				}
				_ = st.Push(a.patch, p)
			}
		}
		a.seen <- n
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
		if err != nil || len(batch.Deltas) != 2 || len(batch.Deltas[1].Header) != 1 {
			b.Fatalf("decoded %+v, %v", batch, err)
		}
	}
}

// resumeBatchApply is Messenger's batch into a device's client stream, which
// merges the patch and hands the payload to Next; the cursor takes a new
// value every iteration (two digits written into the frame), so each merge
// copies it.
func resumeBatchApply(b *testing.B) {
	tap := &wireTap{wire: resumeBatchWire(b), next: make(chan struct{}), closed: make(chan struct{})}
	cursorAt := bytes.Index(tap.wire, []byte(burst.HdrCursor+"\x041.41")) + len(burst.HdrCursor) + 3
	set := func(i int) string {
		d := []byte{'0' + byte(i/10%9) + 1, '0' + byte(i%10)} // 10..99, never the last two
		copy(tap.wire[cursorAt:], d)
		return "1." + string(d)
	}
	cli := burst.NewClient("device", tap, nil)
	defer cli.Close()
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp: "messenger", burst.HdrUser: "7", burst.HdrCursor: "1.40"}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set(i)
		tap.next <- struct{}{}
		batch, _ := st.Next()
		if len(batch.Deltas) != 1 || batch.Deltas[0].Seq != 41 {
			b.Fatalf("device saw %+v, want the payload alone", batch.Deltas)
		}
		batch.Release()
	}
	b.StopTimer()
	if want := set(b.N - 1); st.HeaderField(burst.HdrCursor) != want || st.HeaderField(burst.HdrApp) != "messenger" {
		b.Fatalf("patch not merged: %+v, want cursor %s", st.Request().Header, want)
	}
}

// wireTap is a transport end that records the first write to it and counts
// them all, signalling each on wrote when that is set, and hands its reader
// one copy of wire per token on next (never, with a nil next).
type wireTap struct {
	written, wire []byte
	sent          int
	next, closed  chan struct{}
	wrote         chan struct{}
	once          sync.Once
}

func (w *wireTap) Write(p []byte) (int, error) {
	if w.sent++; w.sent == 1 {
		w.written = append(w.written, p...)
	}
	if w.wrote != nil {
		w.wrote <- struct{}{}
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
