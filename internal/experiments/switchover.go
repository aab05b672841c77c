package experiments

import (
	"encoding/json"
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
	"bladerunner/internal/metrics"
	"bladerunner/internal/pylon"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// SwitchoverRuns is the pair of live LVC runs that Switchover and Figure6
// both read: the same comment script served once by client-side polling and
// once by Bladerunner streams, against the real TAO, WAS, Pylon and BRASS.
type SwitchoverRuns struct {
	poll, stream switchStats
	emptyPolls   float64 // fraction of polls answering nothing new
	pollLatency  *metrics.Histogram[time.Duration]
	lvc          lvcCounts
}

// MeasureSwitchover makes SwitchoverRuns' two runs on the live stack,
// switchViewers viewers x switchComments comments each.
func MeasureSwitchover(seed int64) SwitchoverRuns {
	var r SwitchoverRuns
	r.poll, r.emptyPolls, r.pollLatency = runPolls(seed)
	r.stream, r.lvc = runStreams(seed)
	return r
}

// Switchover reproduces the production LiveVideoComments switchover
// measurement (§1, §5) from runs, comparing the backend resource usage of
// the two variants. The paper reports a 10× reduction in LVC-related
// social-graph queries-per-second and WAS CPU load. Only the query half is
// measured: the WAS shares its process with the pollers and the BRASS host,
// so its CPU cannot be told apart. The Bladerunner variant also reports what
// its BRASS host decided: how many delivery decisions it made, how many of
// them it filtered, and how many privacy checks LVC's pop-check-repop spent
// on a graph where every viewer blocks a fifth of the commenters.
//
// Timers are scaled (milliseconds stand in for seconds) so each run takes
// under a second of wall-clock time; the resource ratios are structural
// (range+point queries per poll vs point queries per delivered update) and
// unaffected by the scaling.
func Switchover(runs SwitchoverRuns) Result {
	pollStats, brStats, lc := runs.poll, runs.stream, runs.lvc
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
	r.AddRow("empty poll fraction", "~80%", pct(runs.emptyPolls),
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

// Figure6 reports the paper's Fig 6, LVC comment latency from creation to the
// device, polling against Bladerunner, from runs: every (viewer, comment)
// delivery is timed once, a poll's to the first answer that holds the
// comment, a stream's to the viewer's Next handing over its payload. The
// times are the stack's own: a pollEvery poll stands for the paper's 2 s.
func Figure6(runs SwitchoverRuns) Result {
	r := Result{ID: "fig6", Title: "LVC comment latency: poll vs stream (live stack)"}
	poll, stream := runs.pollLatency.Snapshot(), runs.lvc.latency.Snapshot()
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond)) }
	scale := fmt.Sprintf("a %v poll stands for the paper's 2s", pollEvery)
	r.AddRow("poll mean", "4.8s", ms(poll.Mean), scale)
	r.AddRow("stream mean", "3.4s", ms(stream.Mean), scale)
	r.AddRow("poll p50", "-", ms(poll.P50), scale)
	r.AddRow("stream p50", "-", ms(stream.P50), scale)
	r.AddRow("poll p75", "6s", ms(poll.P75), scale)
	r.AddRow("stream p75", "4s", ms(stream.P75), scale)
	r.AddRow("poll p95", "14s", ms(poll.P95),
		"not reproduced: the paper's tail is production TAO overload under hot-video polls; "+scale)
	r.AddRow("stream p95", "6s", ms(stream.P95),
		fmt.Sprintf("a viewer pops one comment per %v rate limit, one arrives every %v; %s", lvcRateLimit, commentGap, scale))
	r.AddRow("poll p99", "-", ms(poll.P99), scale)
	r.AddRow("stream p99", "-", ms(stream.P99), scale)
	r.AddRow("deliveries timed (poll / stream)", "-", fmt.Sprintf("%d / %d", poll.Count, stream.Count),
		fmt.Sprintf("of %d viewers x %d comments: a blocked author's never arrive, a stream skips what its ranked buffer drops",
			switchViewers, switchComments))
	r.AddSeries("poll", latencySeries(runs.pollLatency))
	r.AddSeries("stream", latencySeries(runs.lvc.latency))
	if poll.Count == 0 || stream.Count == 0 {
		r.Err = fmt.Errorf("a variant timed no delivery (poll %d, stream %d)", poll.Count, stream.Count)
	}
	return r
}

// latencySeries is the figure's histogram: the fraction of deliveries in
// each of 20 buckets pollEvery/2 wide (1 s at the paper's scale), X the
// bucket's upper bound in ms.
func latencySeries(h *metrics.Histogram[time.Duration]) []SeriesPoint {
	bounds := make([]time.Duration, 20)
	for i := range bounds {
		bounds[i] = time.Duration(i+1) * pollEvery / 2
	}
	counts := h.Buckets(bounds)
	out := make([]SeriesPoint, len(bounds))
	for i, b := range bounds {
		out[i] = SeriesPoint{X: float64(b) / float64(time.Millisecond), Y: float64(counts[i]) / float64(max(h.Count(), 1))}
	}
	return out
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

// runPolls serves the comments to client-side pollers. It returns the
// fraction of polls that answered nothing new, and each (viewer, comment)
// delivery's latency: the comment's creation to the first poll answer that
// holds it.
func runPolls(seed int64) (switchStats, float64, *metrics.Histogram[time.Duration]) {
	sched := sim.RealClock{}
	env := newSwitchEnv(seed)
	var seen firstSeen
	pollers := make([]*baseline.ClientPoller, switchViewers)
	for i := range pollers {
		pollers[i] = &baseline.ClientPoller{
			WAS:      env.WAS,
			Viewer:   socialgraph.UserID(i + 1),
			Query:    "videoComments(videoID: 900, limit: 10)",
			Interval: pollEvery,
			Sched:    sched,
			OnNewData: func(data []byte) {
				now := sched.Now()
				var answer []struct {
					CommentID uint64 `json:"comment_id"`
				}
				if json.Unmarshal(data, &answer) == nil {
					for _, c := range answer {
						seen.see(i, c.CommentID, now)
					}
				}
			},
		}
		pollers[i].Start()
	}
	created := postComments(sched, env.WAS)
	sim.Sleep(sched, settleAfter)
	var polls, empty int64
	for _, p := range pollers {
		p.Stop()
		polls += p.Polls.Value()
		empty += p.EmptyPolls.Value()
	}
	return env.snapshot(), float64(empty) / float64(max(polls, 1)), seen.latency(created)
}

// lvcCounts is what the stream variant's WAS and BRASS host counted, and
// what its viewers timed.
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
	// latency is each (viewer, comment) delivery's time from the comment's
	// creation to the viewer's Next handing over its payload.
	latency *metrics.Histogram[time.Duration]
}

// runStreams serves the comments to Bladerunner streams on one BRASS host.
func runStreams(seed int64) (switchStats, lvcCounts) {
	sched := sim.RealClock{}
	env := newSwitchEnv(seed)
	host := core.NewBrassTier(env.cfg, "us", "", env.Apps, env.pylon, env.WAS, nil).Hosts[0]
	defer host.Close()

	// The viewers read their streams as batches arrive. Each payload delta's
	// seq is its comment's ID (LVC's flush).
	var seen firstSeen
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
				now := sched.Now()
				for _, d := range rc.Deltas {
					if d.Type == burst.DeltaPayload {
						seen.see(i, d.Seq, now)
						received.Add(1)
					}
				}
				rc.Release()
			}
		}()
	}
	// Every stream is open and the host holds the topic on Pylon before
	// the first comment, so each publish meets all the viewers.
	waitUntil(sched, 2*time.Second, func() bool { return host.StreamsOpened.Value() >= switchViewers })
	env.pylon.WaitForSubscriber(sched, apps.LVCTopic(900), 2*time.Second)
	created := postComments(sched, env.WAS)
	sim.Sleep(sched, settleAfter)
	host.Quiesce()
	// The host's writers and the pipes may still hold payloads it sent: wait
	// until the viewers have read as many as it delivered.
	waitUntil(sched, 2*time.Second, func() bool { return received.Load() >= host.Deliveries.Value() })
	return env.snapshot(), lvcCounts{
		published:  env.WAS.PublishesEmitted.Value(),
		decisions:  host.Decisions.Value(),
		deliveries: host.Deliveries.Value(),
		filtered:   host.FilterRate(),
		checks:     env.WAS.PrivacyChecks.Value(),
		denied:     env.WAS.PrivacyDenied.Value(),
		sheds:      host.StreamSheds.Value(),
		resolved:   env.WAS.PayloadFetches.Value(),
		fetched:    seen.comments(),
		latency:    seen.latency(created),
	}
}

// firstSeen records when each viewer first received each comment. A
// delivery may land before the mutation that created it returns its id, so
// latencies are read after the run, against the comments' creation times.
type firstSeen struct {
	mu sync.Mutex
	at map[[2]uint64]time.Time // {viewer, comment id} → first receipt
}

func (f *firstSeen) see(viewer int, comment uint64, now time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.at == nil {
		f.at = make(map[[2]uint64]time.Time)
	}
	if k := [2]uint64{uint64(viewer), comment}; f.at[k].IsZero() {
		f.at[k] = now
	}
}

// comments counts the distinct comments received.
func (f *firstSeen) comments() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make(map[uint64]bool)
	for k := range f.at {
		ids[k[1]] = true
	}
	return int64(len(ids))
}

// latency is each receipt's time since its comment's creation.
func (f *firstSeen) latency(created map[uint64]time.Time) *metrics.Histogram[time.Duration] {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := metrics.NewHistogram[time.Duration]()
	for k, at := range f.at {
		if c, ok := created[k[1]]; ok {
			h.Observe(at.Sub(c))
		}
	}
	return h
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
	wt.Apps.LVC.RateLimit = lvcRateLimit
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

// postComments posts the script's comments and returns each one's creation
// time, taken before its mutation is issued, by the id Mutate answers.
func postComments(sched sim.Scheduler, w *was.Server) map[uint64]time.Time {
	created := make(map[uint64]time.Time, switchComments)
	for i := 0; i < switchComments; i++ {
		at := sched.Now()
		id, err := w.Mutate(commenter(i), fmt.Sprintf(`postComment(videoID: 900, text: "live comment %d")`, i))
		// A comment whose mutation failed has no id, and no delivery of it is timed.
		if n, perr := strconv.ParseUint(string(id), 10, 64); err == nil && perr == nil {
			created[n] = at
		}
		sim.Sleep(sched, commentGap)
	}
	return created
}
