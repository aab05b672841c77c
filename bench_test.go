// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), the ablation benches for the
// design choices called out in DESIGN.md §6, and microbenchmarks of the
// hot paths (BURST framing, Pylon publish, TAO queries, the full
// end-to-end push pipeline).
package bladerunner

import (
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/bench"
	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/experiments"
	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
	"bladerunner/internal/workload"
)

// ---- One bench per paper table/figure (DESIGN.md §5) ----

func BenchmarkTable1AreaUpdateDistribution(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = workload.AreaUpdates(rng, workload.Table1Buckets)
	}
}

func BenchmarkTable2StreamLifetimes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = workload.StreamLifetime(rng, workload.Table2Buckets)
	}
}

func BenchmarkTable3ComponentLatencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table3(int64(i+1), 2000)
	}
}

func BenchmarkFigure6PollVsStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure6(int64(i+1), 2000)
	}
}

func BenchmarkFigure7SubscriptionActivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure7(int64(i+1), 2000)
	}
}

func BenchmarkFigure8DiurnalActivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure8(int64(i + 1))
	}
}

func BenchmarkFigure9LatencyCDFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure9(int64(i+1), 2000)
	}
}

func BenchmarkFigure10FailureRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure10(int64(i + 1))
	}
}

func BenchmarkSwitchoverResourceUsage(b *testing.B) {
	if testing.Short() {
		b.Skip("live-stack experiment")
	}
	for i := 0; i < b.N; i++ {
		_ = experiments.Switchover(int64(i + 1))
	}
}

// ---- Ablation benches (DESIGN.md §6) ----

func BenchmarkAblationMetadataVsPayload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationMetadataVsPayload(1000, 2, 0.09)
	}
}

func BenchmarkAblationSubscriptionDedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationSubscriptionDedup(50, 4)
	}
}

func BenchmarkAblationFirstResponder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationFirstResponder(1000)
	}
}

func BenchmarkAblationRateLimitOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationRateLimitOrder(1000, 10, 0.2, nil)
	}
}

// BenchmarkAblationGenericVsPerApp compares the per-message cost of the
// abandoned generic configurable filter chain against compiled per-app
// filter code (the paper's argument for per-application BRASSes).
func BenchmarkAblationGenericVsPerApp(b *testing.B) {
	meta := map[string]string{"score": "0.53", "lang": "2", "author": "99"}
	cfg := experiments.GenericFilterConfig{
		"min_score":   "0.2",
		"lang_filter": "on",
		"viewer_lang": "2",
		"drop_own":    "on",
		"viewer":      "7",
	}
	b.Run("generic-config-chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = experiments.GenericFilter(cfg, meta)
		}
	})
	b.Run("per-app-compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = experiments.PerAppFilter(0.2, "2", "7", meta)
		}
	})
}

// ---- Microbenchmarks of the hot paths ----
//
// The headline hot-path benchmarks live in internal/bench so that
// TestAllocContracts (alloc_test.go) runs exactly this code.

func BenchmarkBURSTFrameEncode(b *testing.B) { bench.BURSTFrameEncode(b) }

func BenchmarkBURSTFrameDecode(b *testing.B) { bench.BURSTFrameDecode(b) }

func BenchmarkPylonPublish(b *testing.B) { bench.PylonPublish(b) }

// A scroll's Pylon half: the subscription writes, then the first publish
// after them, which misses the subscriber cache.
func BenchmarkPylonSubscribeChurn(b *testing.B) { bench.PylonSubscribeChurn(b) }

func BenchmarkPylonSlowPublish(b *testing.B) { bench.PylonSlowPublish(b) }

// A scroll's edge half: a stream opened and cancelled through one proxy hop.
func BenchmarkEdgeRelayOpenClose(b *testing.B) { bench.EdgeRelayOpenClose(b) }

// BenchmarkHotTopicFanout is the subscriber-cache acceptance benchmark:
// one publish fanning out to 1000 subscribed hosts on one hot topic.
func BenchmarkHotTopicFanout(b *testing.B) { bench.HotTopicFanout(b) }

func BenchmarkEndToEndCommentPush(b *testing.B) { bench.EndToEndCommentPush(b) }

// BenchmarkBRASSEventHandOff: one event from Host.Deliver to an app's range
// over StreamsForTopic, with nothing else on the path.
func BenchmarkBRASSEventHandOff(b *testing.B) { bench.BRASSEventHandOff(b) }

// The two tier RPCs on the hot paths, over loopback TCP: publish is paid
// once per mutation, the visibility check once per delivery.
func BenchmarkPylonPublishWire(b *testing.B) { bench.PylonPublishWire(b) }

func BenchmarkCtrlCheckVisibility(b *testing.B) { bench.CtrlCheckVisibilityWire(b) }

// The open path's WAS half: an expression scanned, a comment through the WAS.
func BenchmarkWASParseField(b *testing.B) { bench.WASParseField(b) }

func BenchmarkWASMutateFeedComment(b *testing.B) { bench.WASMutateFeedComment(b) }

// BenchmarkEndToEndCommentPushHops is the same pipeline with the tracing
// plane sampling every mutation: the per-hop latency breakdown (publish,
// fan-out, payload fetch, push) is reported as custom <hop>-ns metrics.
func BenchmarkEndToEndCommentPushHops(b *testing.B) { bench.EndToEndCommentPushHops(b) }

func newBenchKV() *kvstore.Cluster { return bench.NewKV() }

type benchSink struct{ n int }

func (s *benchSink) ID() string            { return "sink" }
func (s *benchSink) Deliver(_ pylon.Event) { s.n++ }

func BenchmarkPylonSubscribe(b *testing.B) {
	pyl := pylon.MustNew(pylon.DefaultConfig(), newBenchKV())
	sink := &benchSink{}
	pyl.RegisterHost(sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pyl.Subscribe(pylon.Topic(fmt.Sprintf("/t/%d", i)), "sink"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTAOPointQuery(b *testing.B) {
	store := tao.MustNewStore(tao.DefaultConfig(), nil)
	id := store.ObjectAdd("comment", tao.Props{{"text", "hello"}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.ObjectGet(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTAORangeQuery quantifies the poll-path cost against the
// point-query cost above: range queries scale with list size and shard
// fan-in (paper footnote 5).
func BenchmarkTAORangeQuery(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("list-%d", size), func(b *testing.B) {
			store := tao.MustNewStore(tao.DefaultConfig(), nil)
			base := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
			for i := 0; i < size; i++ {
				store.AssocAdd(1, "comment", tao.ObjID(i+100),
					base.Add(time.Duration(i)*time.Second), "")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = store.AssocRange(1, "comment", 0, 20)
			}
		})
	}
}

func BenchmarkGraphPrivacyCheck(b *testing.B) {
	g := socialgraph.MustGenerate(socialgraph.Config{
		Users: 10000, MeanFriends: 50, BlockProb: 0.05, Seed: 1,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Blocks(socialgraph.UserID(i%10000+1), socialgraph.UserID((i*7)%10000+1))
	}
}

// BenchmarkSocialGraphGenerate is what every cluster pays before its first
// stream opens: the default graph, 1 000 users and about 76 000 friend
// entries (TestGenerateAllocations in internal/socialgraph holds its cost).
func BenchmarkSocialGraphGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		socialgraph.MustGenerate(socialgraph.DefaultConfig())
	}
}

// BenchmarkAblationPerStreamInstances compares shared-instance hosting
// (production Bladerunner) against the one-instance-per-stream variant §7
// suggests for lower-scale deployments: the isolation costs one goroutine +
// event loop per stream.
func BenchmarkAblationPerStreamInstances(b *testing.B) {
	for _, perStream := range []bool{false, true} {
		name := "shared-instance"
		if perStream {
			name = "per-stream-instance"
		}
		b.Run(name, func(b *testing.B) {
			pyl := pylon.MustNew(pylon.DefaultConfig(), newBenchKV())
			store := tao.MustNewStore(tao.DefaultConfig(), nil)
			graph := socialgraph.MustGenerate(socialgraph.Config{Users: 100, MeanFriends: 5, Seed: 1})
			w := was.New(store, graph, pyl, nil)
			suite := apps.NewSuite(w)
			host := brass.NewHost(brass.HostConfig{
				ID: "bench-host", Region: "us", PerStreamInstances: perStream,
			}, pyl, w, nil)
			defer host.Close()
			suite.RegisterBRASS(host)
			cliConn, hostConn := net.Pipe()
			cli := burst.NewClient("bench", cliConn, nil)
			defer cli.Close()
			host.AcceptSession("bench", hostConn)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := cli.Subscribe(burst.Subscribe{Header: burst.Header{
					burst.HdrApp:          apps.AppFeedComments,
					burst.HdrSubscription: fmt.Sprintf("feedPostComments(postID: %d)", i),
					burst.HdrUser:         "1",
				}})
				if err != nil {
					b.Fatal(err)
				}
				if err := st.Cancel("bench"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(host.InstancesSpun.Value()), "instances")
		})
	}
}
