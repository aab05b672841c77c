// Wire benchmarks: the same hot paths as bench.go, but with every tier
// boundary crossed over a real loopback TCP socket instead of a function
// call — the cost the multi-process deployment (cmd/brnode) adds. The
// in-process numbers are the floor; these are the over-the-wire
// counterparts, and BENCH_10.json records both plus the delta.
package bench

import (
	"io"
	"net"
	"strconv"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/ctrl"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// wirePair returns both ends of one accepted loopback TCP connection.
func wirePair(b *testing.B) (client, server net.Conn) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	srv := <-ch
	if srv.err != nil {
		b.Fatal(srv.err)
	}
	return cli, srv.c
}

// ctrlPair wires a served Conn (setup registers its handlers) to a client
// Conn over one loopback TCP connection.
func ctrlPair(b *testing.B, name string, setup func(*ctrl.Conn)) *ctrl.Conn {
	b.Helper()
	cliConn, srvConn := wirePair(b)
	srv := ctrl.NewConn(name+"-srv", srvConn, nil)
	setup(srv)
	srv.Start()
	cli := ctrl.NewConn(name, cliConn, nil).Start()
	b.Cleanup(func() {
		_ = cli.Close()
		_ = srv.Close()
	})
	return cli
}

// PylonPublishLocal measures one in-process publish to a single-subscriber
// topic on a bare pylon (no region plane), the apples-to-apples floor for
// PylonPublishWire.
func PylonPublishLocal(b *testing.B) {
	pyl := pylon.MustNew(benchAdmission(pylon.DefaultConfig()), NewKV())
	sink := NewSink("sink")
	pyl.RegisterHost(sink)
	if err := pyl.Subscribe("/bench", "sink"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pyl.Publish(pylon.Event{Topic: "/bench", Ref: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// PylonPublishWire measures the same publish issued through the control
// protocol over loopback TCP: encode, socket round trip, dispatch,
// publish, ack. The delta against PylonPublishLocal is the wire tax the
// multi-process deployment pays per publish.
func PylonPublishWire(b *testing.B) {
	pyl := pylon.MustNew(benchAdmission(pylon.DefaultConfig()), NewKV())
	sink := NewSink("sink")
	pyl.RegisterHost(sink)
	if err := pyl.Subscribe("/bench", "sink"); err != nil {
		b.Fatal(err)
	}
	cli := ctrlPair(b, "bench->pylon", func(c *ctrl.Conn) {
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

// visibilityFixture is a WAS and the event the two visibility benchmarks
// ask it about: a comment by a tagged author, the shape every fanned-out
// delivery carries to its privacy check.
func visibilityFixture() (*was.Server, pylon.Event) {
	store := tao.MustNewStore(tao.DefaultConfig(), nil)
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 100, MeanFriends: 5, Seed: 1})
	return was.New(store, graph, nil, nil), pylon.Event{
		Topic: apps.PostTopic(1), ID: 1 << 20, Ref: 4242, Meta: map[string]string{"author": "2"},
	}
}

// CtrlCheckVisibilityLocal measures one in-process privacy check, the floor
// for CtrlCheckVisibilityWire.
func CtrlCheckVisibilityLocal(b *testing.B) {
	w, ev := visibilityFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.CheckEventVisibility(socialgraph.UserID(i%50+3), ev); err != nil {
			b.Fatal(err)
		}
	}
}

// CtrlCheckVisibilityWire measures the same check as one was.check-visibility
// round trip over loopback TCP — the RPC the multi-process deployment pays
// once per delivery, where publish is paid once per mutation.
func CtrlCheckVisibilityWire(b *testing.B) {
	w, ev := visibilityFixture()
	wc := ctrl.NewWASClient(ctrlPair(b, "brass->was", func(c *ctrl.Conn) {
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

// EndToEndCommentPushWire is EndToEndCommentPush with the brnode process
// topology reproduced over loopback sockets: the WAS publishes into Pylon
// through a ctrl conn, the BRASS host consumes Pylon and the WAS through
// ctrl conns, and the device session rides a real TCP connection — four
// sockets on the path of one comment.
func EndToEndCommentPushWire(b *testing.B) {
	// Pylon tier, served over ctrl.
	pyl := pylon.MustNew(pylon.DefaultConfig(), NewKV())
	pylonConnFor := func(name string) *ctrl.PylonClient {
		var pc *ctrl.PylonClient
		cli := ctrlPair(b, name, func(c *ctrl.Conn) {
			ctrl.ServePylon(c, pyl, nil)
		})
		pc = ctrl.NewPylonClient(cli)
		return pc
	}

	// WAS tier: publishes via its own ctrl conn to pylon, served over ctrl.
	store := tao.MustNewStore(tao.DefaultConfig(), nil)
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 100, MeanFriends: 5, Seed: 1})
	w := was.New(store, graph, nil, nil)
	w.Fanout = pylonConnFor("was->pylon")
	apps.NewSuite(w)
	wasCli := ctrlPair(b, "brass->was", func(c *ctrl.Conn) {
		ctrl.ServeWAS(c, w)
	})
	wc := ctrl.NewWASClient(wasCli)

	// BRASS tier: remote pylon + remote WAS, device session over TCP.
	suite := apps.NewSuite(apps.NopRegistrar{})
	host := brass.NewHost(brass.HostConfig{ID: "bench-host", Region: "us"},
		pylonConnFor("brass->pylon"), wc, nil)
	defer host.Close()
	suite.RegisterBRASS(host)

	devConn, edgeConn := wirePair(b)
	cli := burst.NewClient("bench-device", devConn, nil)
	defer cli.Close()
	host.AcceptSession("bench", io.ReadWriteCloser(edgeConn))
	st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{
		burst.HdrApp:          apps.AppFeedComments,
		burst.HdrSubscription: "feedPostComments(postID: 1)",
		burst.HdrUser:         "1",
	}})
	if err != nil {
		b.Fatal(err)
	}
	if !pyl.WaitForSubscriber(nil, apps.PostTopic(1), 5*time.Second) {
		b.Fatal("BRASS host never subscribed to the post topic over ctrl")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wc.MutateIn("", 2, `postFeedComment(postID: 1, text: "`+strconv.Itoa(i)+`")`); err != nil {
			b.Fatal(err)
		}
		for {
			batch, ok := <-st.Events
			if !ok {
				b.Fatal("stream closed")
			}
			done := false
			for _, d := range batch {
				if d.Type == burst.DeltaPayload {
					done = true
				}
			}
			if done {
				break
			}
		}
	}
}
