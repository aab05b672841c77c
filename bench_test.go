// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), the ablation benches for the
// design choices called out in DESIGN.md §6, and microbenchmarks of the
// hot paths (BURST framing, Pylon publish, TAO queries, the full
// end-to-end push pipeline).
package bladerunner

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bladerunner/internal/bench"
	"bladerunner/internal/experiments"
	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
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

func BenchmarkFigure8DiurnalActivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure8(int64(i + 1))
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
		_ = experiments.Switchover(experiments.MeasureSwitchover(int64(i + 1)))
	}
}

// ---- Ablation benches (DESIGN.md §6) ----

func BenchmarkAblationSubscriptionDedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationSubscriptionDedup(50, 4)
	}
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

func BenchmarkEdgeRelayRewriteHop(b *testing.B) { bench.EdgeRelayRewriteHop(b) }

// A scroll's BRASS half, and the subscribe frame through one hop's session.
func BenchmarkBRASSStreamOpenClose(b *testing.B) { streamOpenClose(b) }

func BenchmarkBURSTSubscribeHop(b *testing.B) { subscribeHop(b) }

// BenchmarkHotTopicFanout is the subscriber-cache acceptance benchmark:
// one publish fanning out to 1000 subscribed hosts on one hot topic.
func BenchmarkHotTopicFanout(b *testing.B) { bench.HotTopicFanout(b) }

func BenchmarkEndToEndCommentPush(b *testing.B) { bench.EndToEndCommentPush(b) }

// BenchmarkBRASSEventHandOff: one event from Host.Deliver to an app's range
// over StreamsForTopic, with nothing else on the path.
func BenchmarkBRASSEventHandOff(b *testing.B) { bench.BRASSEventHandOff(b) }

// A payload-cache miss on a full cache: the privacy check, the TAO read, the
// encode and the Put that evicts.
func BenchmarkBRASSPayloadMiss(b *testing.B) { payloadMiss(b) }

// A payload-cache hit through Fetch and Push to a host session's writer.
func BenchmarkBRASSFetchPush(b *testing.B) { fetchPush(b) }

// The two tier RPCs on the hot paths, over loopback TCP: publish is paid
// once per mutation, the visibility check once per delivery.
func BenchmarkPylonPublishWire(b *testing.B) { bench.PylonPublishWire(b) }

func BenchmarkCtrlCheckVisibility(b *testing.B) { bench.CtrlCheckVisibilityWire(b) }

// The open path's WAS half: an expression scanned, a comment through the WAS.
func BenchmarkWASParseField(b *testing.B) { bench.WASParseField(b) }

func BenchmarkWASMutateFeedComment(b *testing.B) { bench.WASMutateFeedComment(b) }

func BenchmarkWASResolveFeedSubscription(b *testing.B) { resolveFeedSubscription(b) }

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
	id := store.ObjectAdd("comment", 7, 17, 0, tao.Props{{"text", "hello"}})
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
