package experiments

import (
	"fmt"
	"strconv"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/baseline"
	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/edge"
	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// Switchover reproduces the production LiveVideoComments switchover
// measurement (§1, §5): the same comment workload is served once by
// client-side polling and once by Bladerunner, against the real TAO, WAS,
// Pylon, and BRASS implementations, and the backend resource usage is
// compared. The paper reports a 10× reduction in LVC-related social-graph
// queries-per-second and WAS CPU load.
//
// Timers are scaled (milliseconds stand in for seconds) so the experiment
// runs in under a second of wall-clock time; the resource ratios are
// structural (range+point queries per poll vs point queries per delivered
// update) and unaffected by the scaling.
func Switchover(seed int64) Result {
	const (
		viewers     = 30
		comments    = 40
		pollEvery   = 20 * time.Millisecond // stands in for the 2s production poll
		commentGap  = 2 * time.Millisecond
		settleAfter = 400 * time.Millisecond
	)
	sched := sim.RealClock{}

	// ---- Variant A: client-side polling ----
	pollEnv := newSwitchEnv(seed)
	pollers := make([]*baseline.ClientPoller, viewers)
	for i := range pollers {
		pollers[i] = &baseline.ClientPoller{
			WAS:      pollEnv.was,
			Viewer:   socialgraph.UserID(i + 1),
			Query:    "videoComments(videoID: 900, limit: 10)",
			Interval: pollEvery,
			Sched:    sched,
		}
		pollers[i].Start()
	}
	postComments(sched, pollEnv.was, comments, commentGap)
	sim.Sleep(sched, settleAfter)
	for _, p := range pollers {
		p.Stop()
	}
	pollStats := pollEnv.snapshot()

	// ---- Variant B: Bladerunner streams ----
	brEnv := newSwitchEnv(seed)
	host := brass.NewHost(brass.HostConfig{ID: "brass-x", Region: "us", StickyRouting: false},
		brEnv.pylon, brEnv.was, nil)
	defer host.Close()
	brEnv.suite.RegisterBRASS(host)

	clients := make([]*burst.Client, viewers)
	for i := range clients {
		a, b := edge.Pipe()
		clients[i] = burst.NewClient(fmt.Sprintf("viewer-%d", i), a, nil)
		host.AcceptSession("sess", b)
		_, err := clients[i].Subscribe(burst.Subscribe{Header: burst.Header{
			burst.HdrApp:          apps.AppLiveComments,
			burst.HdrSubscription: "liveVideoComments(videoID: 900)",
			burst.HdrUser:         strconv.Itoa(i + 1),
		}})
		if err != nil {
			panic(err)
		}
		defer clients[i].Close()
	}
	// Wait for the host to register the topic with Pylon.
	brEnv.pylon.WaitForSubscriber(sched, apps.LVCTopic(900), 2*time.Second)
	postComments(sched, brEnv.was, comments, commentGap)
	sim.Sleep(sched, settleAfter)
	host.Quiesce()
	brStats := brEnv.snapshot()
	delivered := host.Deliveries.Value()

	// ---- Comparison ----
	r := Result{ID: "switchover", Title: "LVC polling vs Bladerunner: backend resource usage (live stack)"}
	ratio := func(a, b int64) string {
		if b == 0 {
			return "inf"
		}
		return fmt.Sprintf("%.1fx", float64(a)/float64(b))
	}
	r.AddRow("TAO read queries (poll / stream)",
		"10x fewer with Bladerunner",
		fmt.Sprintf("%d / %d = %s", pollStats.taoReads, brStats.taoReads,
			ratio(pollStats.taoReads, brStats.taoReads)), "")
	r.AddRow("TAO shard accesses (poll / stream)",
		"up to 5% global IOPS reduction at peak",
		fmt.Sprintf("%d / %d = %s", pollStats.shardAccesses, brStats.shardAccesses,
			ratio(pollStats.shardAccesses, brStats.shardAccesses)),
		"polls are range queries over many shards")
	r.AddRow("WAS CPU (modeled ms, poll / stream)",
		"~10x less for LVC",
		fmt.Sprintf("%d / %d = %s", pollStats.wasCPU, brStats.wasCPU,
			ratio(pollStats.wasCPU, brStats.wasCPU)), "")
	r.AddRow("range queries (poll / stream)", "-",
		fmt.Sprintf("%d / %d", pollStats.rangeQueries, brStats.rangeQueries),
		"Bladerunner's fetches are point queries")
	r.AddRow("empty poll fraction", "~80%", pct(emptyPollRate(pollers)),
		"polls returning no new data")
	r.AddRow("updates delivered (stream)", "-", fmt.Sprintf("%d", delivered),
		"pushes, rate-limited per viewer")
	return r
}

type switchEnv struct {
	tao   *tao.Store
	pylon *pylon.Service
	was   *was.Server
	suite *apps.Suite
}

type switchStats struct {
	taoReads      int64
	shardAccesses int64
	rangeQueries  int64
	wasCPU        int64
}

func newSwitchEnv(seed int64) *switchEnv {
	nodes := []*kvstore.Node{
		kvstore.NewNode("a", "us"), kvstore.NewNode("b", "eu"), kvstore.NewNode("c", "ap"),
	}
	pyl := pylon.MustNew(pylon.DefaultConfig(), kvstore.MustNewCluster(nodes, 3))
	store := tao.MustNewStore(tao.Config{Shards: 64, IndexShardCapacity: 8}, nil)
	graph := socialgraph.MustGenerate(socialgraph.Config{
		Users: 200, MeanFriends: 10, Seed: seed,
	})
	w := was.New(store, graph, pyl, nil)
	suite := apps.NewSuite(w)
	suite.LVC.RateLimit = 5 * time.Millisecond
	suite.LVC.MinScore = 0.0
	return &switchEnv{tao: store, pylon: pyl, was: w, suite: suite}
}

func (e *switchEnv) snapshot() switchStats {
	return switchStats{
		taoReads:      e.tao.Stats().Reads(),
		shardAccesses: e.tao.Stats().ShardAccesses.Value(),
		rangeQueries:  e.tao.Stats().RangeQueries.Value(),
		wasCPU:        e.was.CPUMillis.Value(),
	}
}

func postComments(sched sim.Scheduler, w *was.Server, n int, gap time.Duration) {
	for i := 0; i < n; i++ {
		author := socialgraph.UserID(100 + i%50)
		_, _ = w.Mutate(author, fmt.Sprintf(`postComment(videoID: 900, text: "live comment %d")`, i))
		sim.Sleep(sched, gap)
	}
}

func emptyPollRate(pollers []*baseline.ClientPoller) float64 {
	var polls, empty int64
	for _, p := range pollers {
		polls += p.Polls.Value()
		empty += p.EmptyPolls.Value()
	}
	if polls == 0 {
		return 0
	}
	return float64(empty) / float64(polls)
}
