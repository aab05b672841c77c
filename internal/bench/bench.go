// Package bench holds the hot-path benchmark bodies shared by the root
// `go test -bench` suite and its TestAllocContracts. Keeping them in one
// non-test package means the contracts measure exactly the code `go test
// -bench` runs, and that the bodies are subject to brlint (no wall-clock
// polling — waits go through pylon.WaitForSubscriber or channel receives).
package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/edge"
	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/region"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/trace"
	"bladerunner/internal/was"
)

// NewKV builds the 3-node, 3-replica cluster every benchmark publishes
// through.
func NewKV() *kvstore.Cluster {
	nodes := []*kvstore.Node{
		kvstore.NewNode("a", "us"), kvstore.NewNode("b", "eu"), kvstore.NewNode("c", "ap"),
	}
	return kvstore.MustNewCluster(nodes, 3)
}

// Sink is a delivery-counting pylon.Subscriber.
type Sink struct {
	id string
	n  int
}

func NewSink(id string) *Sink { return &Sink{id: id} }
func (s *Sink) ID() string    { return s.id }

// 0 allocs/op publish gates it exists to measure.
//
//brlint:hotpath the bench harness subscriber must not perturb the
func (s *Sink) Deliver(_ pylon.Event) { s.n++ }
func (s *Sink) Count() int            { return s.n }

// benchAdmission returns a pylon config with publish admission ENABLED at
// a rate no benchmark can exhaust. The zero-alloc gates on the hot paths
// run with the overload plane on: the token-bucket refill on every publish
// must cost nothing, or the plane is not free when idle.
func benchAdmission(cfg pylon.Config) pylon.Config {
	cfg.AdmitRate = 1e7
	cfg.AdmitBurst = 1e6
	cfg.AdmitSeed = 1
	return cfg
}

// newBenchPlane wraps an origin pylon in a two-region replication plane so
// the publish benchmarks pay the region plane's hot-path cost: origin
// delivery plus one per-link enqueue. The remote region gets its own pylon
// with subscribe applied per topic so its (off-goroutine) delivery also
// rides the cached fan-out path. Replication lag is zero — a lag
// distribution would make the link worker arm timers, and the worker's
// allocations count against the benchmark's global 0 allocs/op gate.
func newBenchPlane(b *testing.B, origin *pylon.Service, topics ...pylon.Topic) *region.Plane {
	topo, err := region.NewTopology(region.Config{Regions: []string{"east", "west"}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	remote := pylon.MustNew(benchAdmission(pylon.DefaultConfig()), NewKV())
	for _, topic := range topics {
		s := NewSink("west-" + string(topic))
		remote.RegisterHost(s)
		if err := remote.Subscribe(topic, s.ID()); err != nil {
			b.Fatal(err)
		}
	}
	plane, err := region.NewPlane(topo, nil, map[string]*pylon.Service{"east": origin, "west": remote})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(plane.Close)
	return plane
}

// PylonPublish measures one publish to a single-subscriber topic — the
// per-event floor of the fan-out path — with admission control enabled and
// the event routed through the two-region replication plane.
func PylonPublish(b *testing.B) {
	pyl := pylon.MustNew(benchAdmission(pylon.DefaultConfig()), NewKV())
	sink := NewSink("sink")
	pyl.RegisterHost(sink)
	if err := pyl.Subscribe("/bench", "sink"); err != nil {
		b.Fatal(err)
	}
	plane := newBenchPlane(b, pyl, "/bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plane.Publish(pylon.Event{Topic: "/bench", Ref: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// PylonSubscribeChurn measures one host subscribing to a warmed topic and
// unsubscribing again — what a scroll writes to the subscription store:
// two quorum writes to three replicas, the reverse index and two shard
// version bumps.
func PylonSubscribeChurn(b *testing.B) {
	pyl := pylon.MustNew(pylon.DefaultConfig(), NewKV())
	pyl.RegisterHost(NewSink("sink"))
	churn := func() {
		if err := pyl.Subscribe("/churn", "sink"); err != nil {
			b.Fatal(err)
		}
		if err := pyl.Unsubscribe("/churn", "sink"); err != nil {
			b.Fatal(err)
		}
	}
	churn() // the key, its member and the reverse-index entry exist from here
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn()
	}
}

// PylonSlowPublish measures a publish right after a subscribe on its topic:
// the subscribe invalidates the cached subscriber set, so the publish takes
// the first-responder read of all three replicas, which agree, and fills the
// cache again — what the first publish after every scroll pays.
func PylonSlowPublish(b *testing.B) {
	pyl := pylon.MustNew(benchAdmission(pylon.DefaultConfig()), NewKV())
	sink := NewSink("sink")
	pyl.RegisterHost(sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pyl.Subscribe("/slow", "sink"); err != nil {
			b.Fatal(err)
		}
		if n, err := pyl.Publish(pylon.Event{Topic: "/slow", Ref: uint64(i)}); err != nil || n != 1 {
			b.Fatalf("publish reached %d hosts, %v", n, err)
		}
	}
	if misses := pyl.SubCacheStale.Value() + pyl.SubCacheMiss.Value(); misses != int64(b.N) {
		b.Fatalf("%d of %d publishes read the replicas", misses, b.N)
	}
}

// HotTopicFanout measures one publish to a topic with 1000 subscribed
// hosts — the paper's hot-event shape (§3.2) and the case the subscriber
// cache exists for: repeat publishes must not re-read the replicated
// subscription store per event. Admission control is enabled (at a
// non-shedding rate) so the alloc gate covers the plane.
// Publishes route through the two-region plane; the asserted fan-out count
// is the synchronous origin-region one.
func HotTopicFanout(b *testing.B) {
	const subscribers = 1000
	pyl := pylon.MustNew(benchAdmission(pylon.DefaultConfig()), NewKV())
	topic := pylon.Topic("/bench/hot")
	for i := 0; i < subscribers; i++ {
		s := NewSink(fmt.Sprintf("sink-%d", i))
		pyl.RegisterHost(s)
		if err := pyl.Subscribe(topic, s.ID()); err != nil {
			b.Fatal(err)
		}
	}
	plane := newBenchPlane(b, pyl, topic)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := plane.Publish(pylon.Event{Topic: topic, Ref: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if n != subscribers {
			b.Fatalf("fanout reached %d of %d subscribers", n, subscribers)
		}
	}
}

// frameSink is the transport under the BURST frame benchmarks: a write
// replaces the captured wire bytes, a read blocks until Close.
type frameSink struct {
	wire   []byte
	closed chan struct{}
	once   sync.Once
}

func (s *frameSink) Write(p []byte) (int, error) {
	s.wire = append(s.wire[:0], p...)
	return len(p), nil
}

func (s *frameSink) Read([]byte) (int, error) {
	<-s.closed
	return 0, io.EOF
}

func (s *frameSink) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

// frameBatch is the batch both frame benchmarks carry: one payload delta
// with a 256-byte body.
var frameBatch = burst.Batch{Deltas: []burst.Delta{
	burst.PayloadDelta(7, bytes.Repeat([]byte("x"), 256)),
}}

// BURSTFrameEncode measures Session.SendMsg for one batch frame: binary
// encode of header and payload into the pooled buffer, one transport write.
func BURSTFrameEncode(b *testing.B) {
	sink := &frameSink{closed: make(chan struct{})}
	sess := burst.NewSession("bench", sink, burst.HandlerFuncs{})
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.SendMsg(burst.FrameBatch, 42, frameBatch); err != nil {
			b.Fatal(err)
		}
	}
}

// BURSTFrameDecode measures the owning receive of the same frame, as a
// caller outside a session pays it: ReadFrame (one allocation, the frame
// buffer) and DecodeBatch (one, the []Delta, whose payload aliases the frame
// buffer). A session's own receive path is BURSTSessionReceive/BURSTRelayHop.
func BURSTFrameDecode(b *testing.B) {
	sink := &frameSink{closed: make(chan struct{})}
	sess := burst.NewSession("bench", sink, burst.HandlerFuncs{})
	defer sess.Close()
	if err := sess.SendMsg(burst.FrameBatch, 42, frameBatch); err != nil {
		b.Fatal(err)
	}
	src := bytes.NewReader(sink.wire)
	br := bufio.NewReader(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(sink.wire)
		br.Reset(src)
		f, err := burst.ReadFrame(br)
		if err != nil {
			b.Fatal(err)
		}
		batch, err := burst.DecodeBatch(f.Payload)
		if err != nil || len(batch.Deltas) != 1 || len(batch.Deltas[0].Payload) != 256 {
			b.Fatalf("decoded %+v, %v", batch, err)
		}
	}
}

// handOff is a BRASS application that only ranges StreamsForTopic over the
// event's topic and reports how many streams it saw: what is left to measure
// is the hand-off itself.
type handOff struct {
	rt   *brass.Runtime
	seen chan int
}

func (a *handOff) Name() string                                    { return "handoff" }
func (a *handOff) NewInstance(rt *brass.Runtime) brass.AppInstance { a.rt = rt; return a }
func (a *handOff) OnStreamClose(*brass.Stream, string)             {}
func (a *handOff) OnAck(*brass.Stream, uint64)                     {}

func (a *handOff) OnStreamOpen(st *brass.Stream) error {
	err := st.AddTopic(pylon.Topic(st.Header(burst.HdrTopic)))
	a.seen <- -1 // opened
	return err
}

func (a *handOff) OnEvent(ev pylon.Event) {
	n := 0
	for range a.rt.Instance().StreamsForTopic(ev.Topic) {
		n++
	}
	a.seen <- n
}

// BRASSEventHandOff measures one event from Host.Deliver through an
// instance's loop queue to an app ranging StreamsForTopic over its one
// stream: the per-event BRASS path with no application work on it.
func BRASSEventHandOff(b *testing.B) {
	app := &handOff{seen: make(chan int)}
	host := brass.NewHost(brass.HostConfig{ID: "handoff-host"}, nil, nil, nil)
	defer host.Close()
	host.RegisterApp(app)
	cliConn, hostConn := net.Pipe()
	cli := burst.NewClient("handoff-device", cliConn, nil)
	defer cli.Close()
	host.AcceptSession("handoff", hostConn)
	if _, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{burst.HdrApp: "handoff", burst.HdrTopic: "/handoff"}}); err != nil {
		b.Fatal(err)
	}
	<-app.seen
	ev := pylon.Event{Topic: "/handoff", Author: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.ID = uint64(i)
		host.Deliver(ev)
		if n := <-app.seen; n != 1 {
			b.Fatalf("the app ranged over %d streams, want 1", n)
		}
	}
}

// EdgeRelayOpenClose measures a scroll's edge half: a device opens a stream
// through one edge.Proxy hop over a PipeNetwork to an upstream that only
// records it, then cancels it, which the relay passes on. The proxy's upstream
// session and every stream table are warm after the first lap.
func EdgeRelayOpenClose(b *testing.B) {
	pn := edge.NewPipeNetwork()
	seen := make(chan burst.FrameType)
	pn.Register("up", func(rwc io.ReadWriteCloser) {
		burst.NewServerSession("up", rwc, burst.ServerHandlerFuncs{
			Subscribe: func(*burst.ServerStream, burst.Subscribe) { seen <- burst.FrameSubscribe },
			Cancel:    func(*burst.ServerStream, burst.Cancel) { seen <- burst.FrameCancel },
		})
	})
	pop := edge.NewProxy("pop", pn, edge.StaticRouter("up"))
	defer pop.Close()
	pn.Register("pop", pop.Accept)
	rwc, err := pn.Dial("pop")
	if err != nil {
		b.Fatal(err)
	}
	cli := burst.NewClient("device", rwc, nil)
	defer cli.Close()
	req := burst.Subscribe{Header: burst.Header{
		burst.HdrApp: apps.AppFeedComments, burst.HdrSubscription: "feedPostComments(postID: 17)", burst.HdrUser: "9"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := cli.Subscribe(req)
		if err != nil {
			b.Fatal(err)
		}
		if f := <-seen; f != burst.FrameSubscribe {
			b.Fatalf("upstream saw a %v, want the subscribe", f)
		}
		if err := st.Cancel(""); err != nil {
			b.Fatal(err)
		}
		if f := <-seen; f != burst.FrameCancel {
			b.Fatalf("upstream saw a %v, want the cancel", f)
		}
	}
}

// EndToEndCommentPush measures one comment's full live-stack trip: WAS
// mutation → TAO write → Pylon publish → BRASS filter+fetch → BURST push →
// client receive.
func EndToEndCommentPush(b *testing.B) {
	endToEndCommentPush(b, nil)
}

// EndToEndCommentPushHops is EndToEndCommentPush with the tracing plane on
// at rate 1: every op's hops are measured, the per-hop latency
// sub-histograms (publish, fan-out, payload fetch, push) are folded into a
// Breakdown, and the hop means are reported as custom benchmark metrics,
// so `go test -bench EndToEndCommentPushHops` prints the breakdown inline.
func EndToEndCommentPushHops(b *testing.B) {
	// 1<<16 spans per process ring: enough that a typical benchtime keeps
	// every hop of every op (the WAS collects three spans per op).
	plane := trace.NewPlane(trace.Config{Rate: 1, Capacity: 1 << 16})
	endToEndCommentPush(b, plane)
	breakdown := trace.NewBreakdown()
	breakdown.Record(plane.Gather())
	for hop, s := range breakdown.Stats() {
		b.ReportMetric(float64(s.Mean), hop+"-ns")
	}
}

func endToEndCommentPush(b *testing.B, plane *trace.Plane) {
	pyl := pylon.MustNew(pylon.DefaultConfig(), NewKV())
	store := tao.MustNewStore(tao.DefaultConfig(), nil)
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 100, MeanFriends: 5, Seed: 1})
	w := was.New(store, graph, pyl, nil)
	if plane != nil {
		w.Sampler = plane.Sampler
		w.Tracer = plane.Tracer("was")
		pyl.Tracer = plane.Tracer("pylon")
	}
	suite := apps.NewSuite(w)

	host := brass.NewHost(brass.HostConfig{
		ID: "bench-host", Region: "us", Tracer: plane.Tracer("bench-host"),
	}, pyl, w, nil)
	defer host.Close()
	suite.RegisterBRASS(host)

	cliConn, hostConn := net.Pipe()
	cli := burst.NewClient("bench-device", cliConn, nil)
	defer cli.Close()
	host.AcceptSession("bench", hostConn)
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp:          apps.AppFeedComments,
		burst.HdrSubscription: "feedPostComments(postID: 1)",
		burst.HdrUser:         "1",
	}})
	if err != nil {
		b.Fatal(err)
	}
	if !pyl.WaitForSubscriber(nil, apps.PostTopic(1), 5*time.Second) {
		b.Fatal("BRASS host never subscribed to the post topic")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Mutate(2, `postFeedComment(postID: 1, text: "`+strconv.Itoa(i)+`")`); err != nil {
			b.Fatal(err)
		}
		// Wait for the push to arrive at the device.
		for got := false; !got; {
			batch, ok := st.Next()
			if !ok {
				b.Fatal("stream closed")
			}
			for _, d := range batch.Deltas {
				got = got || d.Type == burst.DeltaPayload
			}
		}
	}
}
