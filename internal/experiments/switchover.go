package experiments

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/baseline"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/edge"
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
// queries-per-second and WAS CPU load. Only the query half is measured:
// the WAS shares its process with the pollers and the BRASS host, so its
// CPU cannot be told apart. The Bladerunner variant also reports what its
// BRASS host decided: how many delivery decisions it made, how many of them
// it filtered, and how many privacy checks LVC's pop-check-repop spent on a
// graph where every viewer blocks a fifth of the commenters.
//
// Timers are scaled (milliseconds stand in for seconds) so the experiment
// runs in under a second of wall-clock time; the resource ratios are
// structural (range+point queries per poll vs point queries per delivered
// update) and unaffected by the scaling.
func Switchover(seed int64) Result {
	pollStats, pollers := runPolls(seed)
	brStats, lc := runStreams(seed)

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
	r.AddRow("range queries (poll / stream)", "-",
		fmt.Sprintf("%d / %d", pollStats.rangeQueries, brStats.rangeQueries),
		"Bladerunner's fetches are point queries")
	r.AddRow("empty poll fraction", "~80%", pct(emptyPollRate(pollers)),
		"polls returning no new data")
	r.AddRow("BRASS decisions (stream)", "-", fmt.Sprintf("%d", lc.decisions),
		fmt.Sprintf("%d streams x %d publishes", switchViewers, lc.published))
	r.AddRow("updates delivered (stream)", "-", fmt.Sprintf("%d", lc.deliveries),
		"pushes, rate-limited per viewer")
	r.AddRow("fraction filtered at BRASS", ">80%", pct(lc.filtered),
		"1 - deliveries/decisions, the host's counters")
	r.AddRow("privacy checks (per-app BRASS)", "-", fmt.Sprintf("%d", lc.checks),
		"LVC checks at pop time and pops again on a denial")
	r.AddRow("privacy denials (per-app BRASS)", "-", fmt.Sprintf("%d", lc.denied),
		fmt.Sprintf("each viewer blocks 1/%d of the commenters", switchBlockEvery))
	if lc.decisions == 0 {
		r.Err = fmt.Errorf("the stream variant's host made no delivery decision")
	}
	return r
}

// The switchover's workload: switchViewers viewers watch one live video
// while switchComments comments arrive, each from a different commenter,
// and viewer v blocks commenter c when (v+c) % switchBlockEvery == 0.
const (
	switchViewers    = 30
	switchComments   = 40
	switchBlockEvery = 5

	pollEvery   = 20 * time.Millisecond // stands in for the 2s production poll
	commentGap  = 2 * time.Millisecond
	settleAfter = 400 * time.Millisecond
)

// commenter is the author of the switchover's i-th comment.
func commenter(i int) socialgraph.UserID { return socialgraph.UserID(100 + i) }

// runPolls serves the comments to client-side pollers.
func runPolls(seed int64) (switchStats, []*baseline.ClientPoller) {
	sched := sim.RealClock{}
	env := newSwitchEnv(seed)
	pollers := make([]*baseline.ClientPoller, switchViewers)
	for i := range pollers {
		pollers[i] = &baseline.ClientPoller{
			WAS:      env.WAS,
			Viewer:   socialgraph.UserID(i + 1),
			Query:    "videoComments(videoID: 900, limit: 10)",
			Interval: pollEvery,
			Sched:    sched,
		}
		pollers[i].Start()
	}
	postComments(sched, env.WAS)
	sim.Sleep(sched, settleAfter)
	for _, p := range pollers {
		p.Stop()
	}
	return env.snapshot(), pollers
}

// lvcCounts is what the stream variant's WAS and BRASS host counted.
type lvcCounts struct {
	published  int64   // WAS publishes emitted
	decisions  int64   // host delivery decisions
	deliveries int64   // host payload deltas sent
	filtered   float64 // host.FilterRate: 1 - deliveries/decisions
	checks     int64   // WAS privacy checks
	denied     int64   // WAS privacy denials
	sheds      int64   // payload deltas shed by per-stream admission
	resolved   int64   // WAS payload resolutions
	fetched    int64   // distinct comments the viewers received
}

// runStreams serves the comments to Bladerunner streams on one BRASS host.
func runStreams(seed int64) (switchStats, lvcCounts) {
	sched := sim.RealClock{}
	env := newSwitchEnv(seed)
	host := core.NewBrassTier(env.cfg, "us", "", env.Apps, env.pylon, env.WAS, nil).Hosts[0]
	defer host.Close()

	// The viewers read their streams as batches arrive. Each payload delta's
	// seq is its comment's ID (LVC's flush).
	var mu sync.Mutex
	fetched := make(map[uint64]bool)
	var received atomic.Int64
	for i := 0; i < switchViewers; i++ {
		a, b := edge.Pipe()
		c := burst.NewClient(fmt.Sprintf("viewer-%d", i), a, nil)
		host.AcceptSession("sess", b)
		st, err := c.Subscribe(burst.Subscribe{Header: burst.Header{
			burst.HdrApp:          apps.AppLiveComments,
			burst.HdrSubscription: "liveVideoComments(videoID: 900)",
			burst.HdrUser:         strconv.Itoa(i + 1),
		}})
		if err != nil {
			panic(err)
		}
		defer c.Close()
		go func() {
			for rc, ok := st.Next(); ok; rc, ok = st.Next() {
				mu.Lock()
				for _, d := range rc.Deltas {
					if d.Type == burst.DeltaPayload {
						fetched[d.Seq] = true
						received.Add(1)
					}
				}
				mu.Unlock()
				rc.Release()
			}
		}()
	}
	// Every stream is open and the host holds the topic on Pylon before
	// the first comment, so each publish meets all the viewers.
	waitUntil(sched, 2*time.Second, func() bool { return host.StreamsOpened.Value() >= switchViewers })
	env.pylon.WaitForSubscriber(sched, apps.LVCTopic(900), 2*time.Second)
	postComments(sched, env.WAS)
	sim.Sleep(sched, settleAfter)
	host.Quiesce()
	// The host's writers and the pipes may still hold payloads it sent: wait
	// until the viewers have read as many as it delivered.
	waitUntil(sched, 2*time.Second, func() bool { return received.Load() >= host.Deliveries.Value() })
	mu.Lock()
	defer mu.Unlock()
	return env.snapshot(), lvcCounts{
		published:  env.WAS.PublishesEmitted.Value(),
		decisions:  host.Decisions.Value(),
		deliveries: host.Deliveries.Value(),
		filtered:   host.FilterRate(),
		checks:     env.WAS.PrivacyChecks.Value(),
		denied:     env.WAS.PrivacyDenied.Value(),
		sheds:      host.StreamSheds.Value(),
		resolved:   env.WAS.PayloadFetches.Value(),
		fetched:    int64(len(fetched)),
	}
}

// switchEnv is one variant's backend: the Pylon and WAS tiers, built as
// core.NewCluster builds them.
type switchEnv struct {
	cfg   core.Config
	pylon *pylon.Service
	*core.WASTier
}

type switchStats struct {
	taoReads      int64
	shardAccesses int64
	rangeQueries  int64
}

func newSwitchEnv(seed int64) *switchEnv {
	cfg := core.Config{
		Regions:             []string{"us"},
		BRASSHostsPerRegion: 1,
		KVNodesPerRegion:    3,
		Graph:               socialgraph.Config{Users: 200, MeanFriends: 10, Seed: seed},
		TAO:                 tao.Config{IndexShardCapacity: 8},
	}
	pt, err := core.NewPylonTier(cfg)
	if err != nil {
		panic(err)
	}
	wt, err := core.NewWASTier(cfg, pt.Pylon, nil, nil)
	if err != nil {
		panic(err)
	}
	wt.Apps.LVC.RateLimit = 5 * time.Millisecond
	wt.Apps.LVC.MinScore = 0.0
	for v := socialgraph.UserID(1); v <= switchViewers; v++ {
		for i := 0; i < switchComments; i++ {
			if c := commenter(i); (v+c)%switchBlockEvery == 0 {
				wt.Graph.Block(v, c)
			}
		}
	}
	return &switchEnv{cfg: cfg, pylon: pt.Pylon, WASTier: wt}
}

func (e *switchEnv) snapshot() switchStats {
	return switchStats{
		taoReads:      e.TAO.Stats().Reads(),
		shardAccesses: e.TAO.Stats().ShardAccesses.Value(),
		rangeQueries:  e.TAO.Stats().RangeQueries.Value(),
	}
}

func postComments(sched sim.Scheduler, w *was.Server) {
	for i := 0; i < switchComments; i++ {
		_, _ = w.Mutate(commenter(i), fmt.Sprintf(`postComment(videoID: 900, text: "live comment %d")`, i))
		sim.Sleep(sched, commentGap)
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
