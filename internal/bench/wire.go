// Wire benchmarks: the two tier RPCs on the hot paths, each crossing a real
// loopback TCP socket instead of a function call — the cost the
// multi-process deployment (cmd/brnode) adds per publish and per delivery.
// The whole-pipeline comparison is the benchmark's wire_fanout workload
// against hot_fanout.
package bench

import (
	"testing"

	"bladerunner/internal/apps"
	"bladerunner/internal/ctrl"
	"bladerunner/internal/edge"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// ctrlLink serves setup's handlers behind a loopback edge.TCPNetwork
// listener and returns a client Conn dialed to them.
func ctrlLink(b *testing.B, name string, setup func(*ctrl.Conn)) *ctrl.Conn {
	b.Helper()
	tnet := edge.NewTCPNetwork()
	srv := ctrl.NewServer(name+"-srv", setup)
	if _, err := tnet.Serve("srv", srv.Accept); err != nil {
		b.Fatal(err)
	}
	cli, err := ctrl.Dial(tnet, "srv", name, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = cli.Close()
		tnet.Close()
		srv.Close()
	})
	return cli
}

// PylonPublishWire measures one publish to a single-subscriber topic issued
// through the control protocol over loopback TCP: encode, socket round
// trip, dispatch, publish, ack — paid once per mutation.
func PylonPublishWire(b *testing.B) {
	pyl := pylon.MustNew(pylon.DefaultConfig(), NewKV())
	sink := NewSink("sink")
	pyl.RegisterHost(sink)
	if err := pyl.Subscribe("/bench", "sink"); err != nil {
		b.Fatal(err)
	}
	cli := ctrlLink(b, "bench->pylon", func(c *ctrl.Conn) {
		ctrl.ServePylon(c, pyl, nil)
	})
	pc := ctrl.NewPylonClient(cli)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.Publish(pylon.Event{Topic: "/bench", Ref: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// visibilityFixture is a WAS and the event the visibility benchmark asks it
// about: a comment by a tagged author, the shape every fanned-out delivery
// carries to its privacy check.
func visibilityFixture() (*was.Server, pylon.Event) {
	store := tao.MustNewStore(tao.DefaultConfig(), nil)
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 100, MeanFriends: 5, Seed: 1})
	return was.New(store, graph, nil, nil), pylon.Event{
		Topic: apps.PostTopic(1), ID: 1 << 20, Ref: 4242, Author: 2,
	}
}

// CtrlCheckVisibilityWire measures one privacy check as a
// was.check-visibility round trip over loopback TCP — the RPC the
// multi-process deployment pays once per delivery.
func CtrlCheckVisibilityWire(b *testing.B) {
	w, ev := visibilityFixture()
	wc := ctrl.NewWASClient(ctrlLink(b, "brass->was", func(c *ctrl.Conn) {
		ctrl.ServeWAS(c, w)
	}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wc.CheckEventVisibility(socialgraph.UserID(i%50+3), ev); err != nil {
			b.Fatal(err)
		}
	}
}

// feedComment is the comment mutation the benchmark's feed workloads send;
// its ids are past strconv's small-integer table, as theirs are.
const feedComment = `postFeedComment(postID: 100017, text: "comment 4242 on post 100017, by user 100")`

// WASParseField measures the scanner on that mutation and on the workloads'
// subscription expression.
func WASParseField(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := was.ParseField(feedComment)
		s, err2 := was.ParseField("feedPostComments(postID: 100017)")
		if err != nil || err2 != nil || m.Name != "postFeedComment" || s.Name != "feedPostComments" {
			b.Fatalf("parsed %+v, %v and %+v, %v", m, err, s, err2)
		}
	}
}

// WASMutateFeedComment measures one feed comment through the WAS: scan,
// resolver, one TAO write, publish to a Pylon without subscribers, encode.
func WASMutateFeedComment(b *testing.B) {
	w, _ := visibilityFixture()
	w.Pylon = pylon.MustNew(pylon.DefaultConfig(), NewKV())
	apps.NewFeedComments(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.MutateIn("", 100, feedComment); err != nil {
			b.Fatal(err)
		}
	}
}
