package apps

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
	"bladerunner/internal/durlog"
	"bladerunner/internal/edge"
	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

type env struct {
	graph *socialgraph.Graph
	tao   *tao.Store
	pylon *pylon.Service
	was   *was.Server
	suite *Suite
	host  *brass.Host
}

func newEnv(t *testing.T) *env { return newEnvOn(t, nil) }

// newEnvOn builds the env with the BRASS host on sched (nil: the wall clock).
func newEnvOn(t *testing.T, sched sim.Scheduler) *env {
	t.Helper()
	nodes := []*kvstore.Node{
		kvstore.NewNode("a", "us"), kvstore.NewNode("b", "eu"), kvstore.NewNode("c", "ap"),
	}
	pyl := pylon.MustNew(pylon.DefaultConfig(), kvstore.MustNewCluster(nodes, 3))
	store := tao.MustNewStore(tao.DefaultConfig(), nil)
	graph := socialgraph.MustGenerate(socialgraph.Config{
		Users: 200, MeanFriends: 20, BlockProb: 0, Seed: 5,
	})
	w := was.New(store, graph, pyl, nil)
	suite := NewSuite(w)
	// Fast timers for real-clock tests.
	suite.LVC.RateLimit = 10 * time.Millisecond
	suite.LVC.BufferTTL = 10 * time.Second
	suite.ActiveStatus.BatchInterval = 10 * time.Millisecond
	suite.ActiveStatus.TTL = 200 * time.Millisecond

	host := brass.NewHost(brass.HostConfig{ID: "brass-1", Region: "us", StickyRouting: true}, pyl, w, sched)
	suite.RegisterBRASS(host)
	t.Cleanup(host.Close)
	return &env{graph: graph, tao: store, pylon: pyl, was: w, suite: suite, host: host}
}

func (e *env) dial(t *testing.T) *burst.Client {
	t.Helper()
	a, b := net.Pipe()
	cli := burst.NewClient("device", a, nil)
	e.host.AcceptSession("sess", b)
	t.Cleanup(func() { cli.Close() })
	return cli
}

func (e *env) subscribe(t *testing.T, cli *burst.Client, app, sub string, viewer socialgraph.UserID, extra burst.Header) *burst.ClientStream {
	t.Helper()
	h := burst.Header{
		burst.HdrApp:          app,
		burst.HdrSubscription: sub,
		burst.HdrUser:         strconv.FormatUint(uint64(viewer), 10),
	}
	for k, v := range extra {
		h[k] = v
	}
	st, err := cli.Subscribe(burst.Subscribe{Header: h})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// createThread has author create a Messenger thread of members and returns
// its id; a failed mutation or an undecodable reply fails the test.
func (e *env) createThread(t *testing.T, author socialgraph.UserID, members string) uint64 {
	t.Helper()
	out, err := e.was.Mutate(author, fmt.Sprintf(`createThread(members: "%s")`, members))
	if err != nil {
		t.Fatal(err)
	}
	var tid uint64
	if err := json.Unmarshal(out, &tid); err != nil {
		t.Fatalf("createThread replied %q: %v", out, err)
	}
	return tid
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// recvPayload waits for the next payload delta on st, skipping flow events.
func recvPayload(t *testing.T, st *burst.ClientStream) burst.Delta {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case batch, ok := <-bursttest.Events(t, st):
			if !ok {
				t.Fatal("stream closed while awaiting payload")
			}
			for _, d := range batch.Deltas {
				if d.Type == burst.DeltaPayload {
					return d
				}
			}
		case <-deadline:
			t.Fatal("timed out waiting for payload")
		}
	}
}

// friendPair returns two users who are friends.
func friendPair(t *testing.T, g *socialgraph.Graph) (socialgraph.UserID, socialgraph.UserID) {
	t.Helper()
	for id := socialgraph.UserID(1); id <= socialgraph.UserID(g.NumUsers()); id++ {
		if fs := g.Friends(id); len(fs) > 0 {
			return id, fs[0]
		}
	}
	t.Fatal("no friends in graph")
	return 0, 0
}

func TestLVCEndToEnd(t *testing.T) {
	e := newEnv(t)
	cli := e.dial(t)
	viewer := socialgraph.UserID(1)
	commenter := socialgraph.UserID(2)
	st := e.subscribe(t, cli, AppLiveComments, "liveVideoComments(videoID: 7)", viewer, nil)
	waitFor(t, "pylon sub", func() bool { return len(e.pylon.Subscribers(LVCTopic(7))) == 1 })

	if _, err := e.was.Mutate(commenter, `postComment(videoID: 7, text: "great video")`); err != nil {
		t.Fatal(err)
	}
	d := recvPayload(t, st)
	var p CommentPayload
	if err := json.Unmarshal(d.Payload, &p); err != nil {
		t.Fatal(err)
	}
	if p.Author != uint64(commenter) || p.Text != "great video" || p.VideoID != 7 {
		t.Errorf("payload = %+v", p)
	}
	// The comment is durable in TAO regardless of push delivery.
	if got := e.tao.AssocCount(tao.ObjID(7), "video_comment"); got != 1 {
		t.Errorf("TAO comment count = %d", got)
	}
}

func TestLVCFiltersOwnComments(t *testing.T) {
	e := newEnv(t)
	cli := e.dial(t)
	viewer := socialgraph.UserID(3)
	st := e.subscribe(t, cli, AppLiveComments, "liveVideoComments(videoID: 8)", viewer, nil)
	waitFor(t, "sub", func() bool { return len(e.pylon.Subscribers(LVCTopic(8))) == 1 })
	if _, err := e.was.Mutate(viewer, `postComment(videoID: 8, text: "my own words")`); err != nil {
		t.Fatal(err)
	}
	e.host.Quiesce()
	select {
	case b := <-bursttest.Events(t, st):
		t.Errorf("own comment delivered: %+v", b.Deltas)
	case <-time.After(100 * time.Millisecond):
	}
	if e.host.Filtered.Value() == 0 {
		t.Error("own comment not counted as filtered")
	}
}

// TestLVCLanguageFilter pins the lang stream header's meaning. It is device
// input: absent, nothing is filtered; a language's decimal passes only that
// language; any other spelling, a zero-padded one too, matches no language.
func TestLVCLanguageFilter(t *testing.T) {
	e := newEnv(t)
	cli := e.dial(t)
	viewer := socialgraph.UserID(4)
	commenter := socialgraph.UserID(0)
	for id := socialgraph.UserID(1); commenter == 0; id++ {
		if id != viewer && e.graph.User(id).Lang == 2 { // so "02" is a padded spelling of it
			commenter = id
		}
	}
	text := "hola"
	for i := 1; was.QualityScore(e.graph.User(commenter), text) < e.suite.LVC.MinScore; i++ {
		text = fmt.Sprintf("hola %d", i)
	}
	cases := []struct {
		name string
		hdr  burst.Header
		want bool // delivered
	}{
		{"absent", nil, true},
		{"the commenter's language", burst.Header{HdrLang: "2"}, true},
		{"another language", burst.Header{HdrLang: "3"}, false},
		{"zero-padded", burst.Header{HdrLang: "02"}, false},
		{"not a number", burst.Header{HdrLang: "abc"}, false},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			video := uint64(20 + i)
			st := e.subscribe(t, cli, AppLiveComments, fmt.Sprintf("liveVideoComments(videoID: %d)", video), viewer, c.hdr)
			waitFor(t, "sub", func() bool { return len(e.pylon.Subscribers(LVCTopic(video))) == 1 })
			filtered := e.host.Filtered.Value()
			if _, err := e.was.Mutate(commenter, fmt.Sprintf("postComment(videoID: %d, text: %q)", video, text)); err != nil {
				t.Fatal(err)
			}
			e.host.Quiesce()
			if c.want {
				var p CommentPayload
				if err := json.Unmarshal(recvPayload(t, st).Payload, &p); err != nil || p.Author != uint64(commenter) {
					t.Errorf("payload = %+v, %v", p, err)
				}
				return
			}
			if got := e.host.Filtered.Value() - filtered; got != 1 {
				t.Errorf("filtered %d comments, want 1", got)
			}
			select {
			case b := <-bursttest.Events(t, st):
				t.Errorf("comment delivered: %+v", b.Deltas)
			case <-time.After(100 * time.Millisecond):
			}
		})
	}
}

func TestLVCPrivacyDenialSkipsComment(t *testing.T) {
	e := newEnv(t)
	cli := e.dial(t)
	viewer := socialgraph.UserID(6)
	blocked := socialgraph.UserID(7)
	e.graph.Block(viewer, blocked)
	st := e.subscribe(t, cli, AppLiveComments, "liveVideoComments(videoID: 10)", viewer, nil)
	waitFor(t, "sub", func() bool { return len(e.pylon.Subscribers(LVCTopic(10))) == 1 })
	if _, err := e.was.Mutate(blocked, `postComment(videoID: 10, text: "you cannot see this")`); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-bursttest.Events(t, st):
		for _, d := range b.Deltas {
			if d.Type == burst.DeltaPayload {
				t.Errorf("blocked author's comment delivered: %s", d.Payload)
			}
		}
	case <-time.After(150 * time.Millisecond):
	}
	if e.was.PrivacyDenied.Value() == 0 {
		t.Error("privacy check never denied")
	}
}

func TestLVCRateLimitOnePerInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock rate-limit timing; skipped in -short")
	}
	e := newEnv(t)
	e.suite.LVC.RateLimit = 80 * time.Millisecond
	cli := e.dial(t)
	viewer := socialgraph.UserID(8)
	st := e.subscribe(t, cli, AppLiveComments, "liveVideoComments(videoID: 11)", viewer, nil)
	waitFor(t, "sub", func() bool { return len(e.pylon.Subscribers(LVCTopic(11))) == 1 })
	// Burst of comments from distinct users.
	for i := 0; i < 10; i++ {
		commenter := socialgraph.UserID(20 + i)
		if _, err := e.was.Mutate(commenter,
			fmt.Sprintf(`postComment(videoID: 11, text: "comment %d")`, i)); err != nil {
			t.Fatal(err)
		}
	}
	// In ~200ms at 80ms/push we expect at most 3-4 deliveries, not 10.
	received := 0
	timeout := time.After(220 * time.Millisecond)
drain:
	for {
		select {
		case batch, ok := <-bursttest.Events(t, st):
			if !ok {
				break drain
			}
			for _, d := range batch.Deltas {
				if d.Type == burst.DeltaPayload {
					received++
				}
			}
		case <-timeout:
			break drain
		}
	}
	if received == 0 || received > 5 {
		t.Errorf("received %d pushes in 220ms at 80ms rate limit", received)
	}
}

// LiveVideoComments is the application the paper's overload story is about,
// and its pushes go through the same per-stream admission as every other
// app's: over the rate the comments are shed and counted, and the device
// hears exactly one shed marker per episode.
func TestLVCIsUnderStreamAdmission(t *testing.T) {
	e := newEnv(t) // LVC pops one comment per 10 ms
	host := brass.NewHost(brass.HostConfig{
		ID: "brass-adm", Region: "us",
		StreamDeliverRate: 1, StreamDeliverBurst: 1,
	}, e.pylon, e.was, nil)
	e.suite.RegisterBRASS(host)
	t.Cleanup(host.Close)
	a, b := net.Pipe()
	cli := burst.NewClient("device", a, nil)
	host.AcceptSession("sess", b)
	t.Cleanup(func() { cli.Close() })

	st := e.subscribe(t, cli, AppLiveComments, "liveVideoComments(videoID: 12)", 8, nil)
	var mu sync.Mutex
	var flows []burst.FlowCode // shed-episode announcements, in arrival order
	go func() {
		for batch := range bursttest.Events(t, st) {
			for _, d := range batch.Deltas {
				if d.Type == burst.DeltaFlowStatus && strings.HasSuffix(d.FlowDetail, "stream-admission") {
					mu.Lock()
					flows = append(flows, d.Flow)
					mu.Unlock()
				}
			}
		}
	}()
	waitFor(t, "sub", func() bool { return len(e.pylon.Subscribers(LVCTopic(12))) == 1 })
	for i := 0; i < 10; i++ {
		if _, err := e.was.Mutate(socialgraph.UserID(20+i),
			fmt.Sprintf(`postComment(videoID: 12, text: "comment %d")`, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Two sheds are one episode unless a token refilled in between.
	waitFor(t, "comments shed", func() bool { return host.StreamSheds.Value() >= 2 })
	waitFor(t, "shed marker heard", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(flows) > 0
	})
	mu.Lock()
	defer mu.Unlock()
	for i, f := range flows {
		want := burst.FlowDegraded
		if i%2 == 1 {
			want = burst.FlowRecovered
		}
		if f != want {
			t.Fatalf("stream-admission announcements = %v, want degraded and recovered alternating: one marker per episode", flows)
		}
	}
}

func TestLVCSpamNeverPublished(t *testing.T) {
	e := newEnv(t)
	// Find a (user, text) pair scoring below the spam threshold.
	var spammer socialgraph.UserID
	var text string
	for uid := socialgraph.UserID(1); uid <= 100 && spammer == 0; uid++ {
		for i := 0; i < 50; i++ {
			cand := fmt.Sprintf("buy now %d", i)
			if was.QualityScore(e.graph.User(uid), cand) < was.SpamThreshold {
				spammer, text = uid, cand
				break
			}
		}
	}
	if spammer == 0 {
		t.Skip("no spam-scoring pair found")
	}
	before := e.pylon.Publishes.Value()
	if _, err := e.was.Mutate(spammer, fmt.Sprintf(`postComment(videoID: 12, text: "%s")`, text)); err != nil {
		t.Fatal(err)
	}
	if e.pylon.Publishes.Value() != before {
		t.Error("spam comment reached Pylon")
	}
	// But it is stored in TAO.
	if got := e.tao.AssocCount(tao.ObjID(12), "video_comment"); got != 1 {
		t.Errorf("spam not stored: count=%d", got)
	}
}

// The WAS's ranking hold applies to comments alone: with RankDelay set, an
// LVC comment reaches Pylon only after the hold, a Messenger message at
// once.
func TestOnlyCommentsWaitForRanking(t *testing.T) {
	const hold = 1790 * time.Millisecond
	e := newEnv(t)
	eng := sim.NewEngine(time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC))
	e.was.Sched = eng // the hold runs on simulated time
	e.was.RankDelay = sim.Constant{V: hold}

	poster := socialgraph.UserID(30)
	text, ok := findComment(e.graph, poster, was.SpamThreshold, 1.01)
	if !ok {
		t.Fatal("no comment text scores above the spam threshold")
	}
	before := e.pylon.Publishes.Value()
	if _, err := e.was.Mutate(poster, fmt.Sprintf(`postComment(videoID: 12, text: %q)`, text)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now().Add(hold - time.Millisecond))
	if got := e.pylon.Publishes.Value() - before; got != 0 {
		t.Fatalf("comment published %d times before the ranking hold ended", got)
	}
	eng.RunUntil(eng.Now().Add(time.Millisecond))
	if got := e.pylon.Publishes.Value() - before; got != 1 {
		t.Fatalf("comment published %d times once the hold ended, want 1", got)
	}

	alice := socialgraph.UserID(17)
	tid := e.createThread(t, alice, "17,18")
	before = e.pylon.Publishes.Value()
	if _, err := e.was.Mutate(alice, fmt.Sprintf(`sendMessage(threadID: %d, text: "hi")`, tid)); err != nil {
		t.Fatal(err)
	}
	if got := e.pylon.Publishes.Value() - before; got == 0 {
		t.Error("message waited for the ranking hold; only comments are ranked")
	}
	if n := eng.Pending(); n != 0 {
		t.Errorf("%d events pending after the message: something was held", n)
	}
}

func TestActiveStatusOnlineOffline(t *testing.T) {
	e := newEnv(t)
	cli := e.dial(t)
	viewer, friend := friendPair(t, e.graph)
	st := e.subscribe(t, cli, AppActiveStatus, "activeStatus", viewer, nil)
	waitFor(t, "friend topic sub", func() bool {
		return len(e.pylon.Subscribers(StatusTopic(friend))) == 1
	})
	if _, err := e.was.Mutate(friend, "reportActive"); err != nil {
		t.Fatal(err)
	}
	d := recvPayload(t, st)
	var p StatusPayload
	if err := json.Unmarshal(d.Payload, &p); err != nil {
		t.Fatal(err)
	}
	if p.User != uint64(friend) || !p.Online {
		t.Errorf("payload = %+v", p)
	}
	// No more reports: after TTL the BRASS pushes offline.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case batch, ok := <-bursttest.Events(t, st):
			if !ok {
				t.Fatal("stream closed")
			}
			for _, dd := range batch.Deltas {
				if dd.Type != burst.DeltaPayload {
					continue
				}
				var q StatusPayload
				if err := json.Unmarshal(dd.Payload, &q); err != nil {
					t.Fatal(err)
				}
				if q.User == uint64(friend) && !q.Online {
					return // got the offline transition
				}
			}
		case <-deadline:
			t.Fatal("no offline transition after TTL")
		}
	}
}

func TestActiveStatusBatchesMultipleFriends(t *testing.T) {
	e := newEnv(t)
	cli := e.dial(t)
	// Find a viewer with >= 2 friends.
	var viewer socialgraph.UserID
	for id := socialgraph.UserID(1); id <= socialgraph.UserID(e.graph.NumUsers()); id++ {
		if len(e.graph.Friends(id)) >= 2 {
			viewer = id
			break
		}
	}
	if viewer == 0 {
		t.Skip("no viewer with 2 friends")
	}
	friends := e.graph.Friends(viewer)[:2]
	e.subscribe(t, cli, AppActiveStatus, "activeStatus", viewer, nil)
	waitFor(t, "subs", func() bool {
		return len(e.pylon.Subscribers(StatusTopic(friends[0]))) == 1 &&
			len(e.pylon.Subscribers(StatusTopic(friends[1]))) == 1
	})
	for _, f := range friends {
		if _, err := e.was.Mutate(f, "reportActive"); err != nil {
			t.Fatal(err)
		}
	}
	// Both statuses arrive (possibly in one batch).
	e.host.Quiesce()
	waitFor(t, "both online", func() bool { return e.host.Deliveries.Value() >= 2 })
}

// stepScheduler is a sim.Scheduler whose time moves only when a test
// advances it; the timers due by then run on the advancing goroutine.
type stepScheduler struct {
	mu     sync.Mutex
	now    time.Time
	timers []*stepTimer
}

type stepTimer struct {
	at        time.Time
	fn        func()
	cancelled bool
}

func (s *stepScheduler) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

func (s *stepScheduler) After(d time.Duration, fn func()) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	tm := &stepTimer{at: s.now.Add(d), fn: fn}
	s.timers = append(s.timers, tm)
	return func() {
		s.mu.Lock()
		tm.cancelled = true
		s.mu.Unlock()
	}
}

// Advance moves time forward by d and runs every live timer due by then.
func (s *stepScheduler) Advance(d time.Duration) {
	s.mu.Lock()
	s.now = s.now.Add(d)
	var due, later []*stepTimer
	for _, tm := range s.timers {
		switch {
		case tm.cancelled:
		case tm.at.After(s.now):
			later = append(later, tm)
		default:
			due = append(due, tm)
		}
	}
	s.timers = later
	s.mu.Unlock()
	for _, tm := range due {
		tm.fn()
	}
}

// armed reports whether a live timer is waiting.
func (s *stepScheduler) armed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, tm := range s.timers {
		if !tm.cancelled {
			return true
		}
	}
	return false
}

// TestActiveStatusBatchIsInUidOrder: friends who report inside one
// BatchInterval reach the device in one batch in ascending uid, whatever
// order they reported in, and so do their TTL expiries.
func TestActiveStatusBatchIsInUidOrder(t *testing.T) {
	sched := &stepScheduler{now: time.Unix(0, 0)}
	e := newEnvOn(t, sched)
	var viewer socialgraph.UserID
	for id := socialgraph.UserID(1); id <= socialgraph.UserID(e.graph.NumUsers()); id++ {
		if len(e.graph.Friends(id)) >= 3 {
			viewer = id
			break
		}
	}
	if viewer == 0 {
		t.Fatal("no viewer with 3 friends")
	}
	friends := e.graph.Friends(viewer)[:3]
	ascending := slices.Clone(friends)
	slices.Sort(ascending)
	st := e.subscribe(t, e.dial(t), AppActiveStatus, "activeStatus", viewer, nil)
	waitFor(t, "subs", func() bool {
		for _, f := range friends {
			if len(e.pylon.Subscribers(StatusTopic(f))) != 1 {
				return false
			}
		}
		return true
	})
	waitFor(t, "flush timer", sched.armed)

	// Report highest uid first, so arrival order is descending.
	fetched := e.host.WASFetches.Value()
	for i := len(ascending) - 1; i >= 0; i-- {
		if _, err := e.was.Mutate(ascending[i], "reportActive"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "three reports", func() bool { return e.host.WASFetches.Value() >= fetched+3 })
	e.host.Quiesce()

	nextBatch := func(what string) []StatusPayload {
		t.Helper()
		select {
		case batch := <-bursttest.Events(t, st):
			var out []StatusPayload
			for _, d := range batch.Deltas {
				if d.Type != burst.DeltaPayload {
					continue
				}
				var p StatusPayload
				if err := json.Unmarshal(d.Payload, &p); err != nil {
					t.Fatal(err)
				}
				out = append(out, p)
			}
			batch.Release()
			return out
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for the %s batch", what)
			return nil
		}
	}
	want := func(online bool) []StatusPayload {
		out := make([]StatusPayload, len(ascending))
		for i, f := range ascending {
			out[i] = StatusPayload{User: uint64(f), Online: online}
		}
		return out
	}

	sched.Advance(e.suite.ActiveStatus.BatchInterval)
	if got := nextBatch("online"); fmt.Sprint(got) != fmt.Sprint(want(true)) {
		t.Errorf("online batch = %v, want %v", got, want(true))
	}
	waitFor(t, "flush timer", sched.armed)
	sched.Advance(e.suite.ActiveStatus.TTL + e.suite.ActiveStatus.BatchInterval)
	if got := nextBatch("expiry"); fmt.Sprint(got) != fmt.Sprint(want(false)) {
		t.Errorf("expiry batch = %v, want %v", got, want(false))
	}
}

func TestTypingIndicatorImmediatePush(t *testing.T) {
	e := newEnv(t)
	cli := e.dial(t)
	viewer := socialgraph.UserID(9)
	peer := socialgraph.UserID(10)
	st := e.subscribe(t, cli, AppTyping, "typingIndicator(threadID: 55, peer: 10)", viewer, nil)
	waitFor(t, "sub", func() bool {
		return len(e.pylon.Subscribers(TypingTopic(55, uint64(peer)))) == 1
	})
	if _, err := e.was.Mutate(peer, `setTyping(threadID: 55, on: "true")`); err != nil {
		t.Fatal(err)
	}
	d := recvPayload(t, st)
	var p TypingPayload
	if err := json.Unmarshal(d.Payload, &p); err != nil {
		t.Fatal(err)
	}
	if p.User != uint64(peer) || !p.Typing || p.Thread != 55 {
		t.Errorf("payload = %+v", p)
	}
	// Stop typing.
	if _, err := e.was.Mutate(peer, `setTyping(threadID: 55, on: "false")`); err != nil {
		t.Fatal(err)
	}
	d = recvPayload(t, st)
	if err := json.Unmarshal(d.Payload, &p); err != nil {
		t.Fatal(err)
	}
	if p.Typing {
		t.Error("expected typing=false")
	}
}

func TestStoriesTrayManagement(t *testing.T) {
	e := newEnv(t)
	e.suite.Stories.TraySize = 1 // force displacement
	cli := e.dial(t)
	viewer, _ := friendPair(t, e.graph)
	friends := e.graph.Friends(viewer)
	if len(friends) < 2 {
		t.Skip("viewer needs 2 friends")
	}
	st := e.subscribe(t, cli, AppStories, "storiesTray", viewer, nil)
	waitFor(t, "subs", func() bool {
		return len(e.pylon.Subscribers(StoriesTopic(uint64(friends[0])))) == 1
	})

	// First friend posts: container added + story delivered.
	if _, err := e.was.Mutate(friends[0], `postStory(content: "sunset pics")`); err != nil {
		t.Fatal(err)
	}
	sawAdd, sawStory := false, false
	deadline := time.After(5 * time.Second)
	for !(sawAdd && sawStory) {
		select {
		case batch, ok := <-bursttest.Events(t, st):
			if !ok {
				t.Fatal("closed")
			}
			for _, d := range batch.Deltas {
				if d.Type != burst.DeltaPayload {
					continue
				}
				var sd StoryDelta
				if err := json.Unmarshal(d.Payload, &sd); err != nil {
					t.Fatal(err)
				}
				switch sd.Op {
				case "container_add":
					if sd.Author == uint64(friends[0]) {
						sawAdd = true
					}
				case "story_add":
					if sd.Content == "sunset pics" {
						sawStory = true
					}
				}
			}
		case <-deadline:
			t.Fatalf("tray ops incomplete: add=%v story=%v", sawAdd, sawStory)
		}
	}

	// Second friend posts with (presumably) different score; with a tray
	// of 1, one of the two must eventually be removed if the newcomer
	// ranks higher. Just assert we see a remove OR a filtered decision.
	if _, err := e.was.Mutate(friends[1], `postStory(content: "a much better story maybe")`); err != nil {
		t.Fatal(err)
	}
	e.host.Quiesce()
	waitFor(t, "second decision", func() bool { return e.host.Decisions.Value() >= 2 })
}

func TestMessengerInOrderDelivery(t *testing.T) {
	e := newEnv(t)
	cli := e.dial(t)
	alice, bob := socialgraph.UserID(11), socialgraph.UserID(12)
	tid := e.createThread(t, alice, "11,12")

	st := e.subscribe(t, cli, AppMessenger, "messenger", bob, nil)
	waitFor(t, "mailbox sub", func() bool {
		return len(e.pylon.Subscribers(MailboxTopic(bob))) == 1
	})
	for i := 1; i <= 3; i++ {
		if _, err := e.was.Mutate(alice,
			fmt.Sprintf(`sendMessage(threadID: %d, text: "msg %d")`, tid, i)); err != nil {
			t.Fatal(err)
		}
	}
	for want := 1; want <= 3; want++ {
		d := recvPayload(t, st)
		var m MessagePayload
		if err := json.Unmarshal(d.Payload, &m); err != nil {
			t.Fatal(err)
		}
		if m.Seq != uint64(want) || m.Text != fmt.Sprintf("msg %d", want) {
			t.Errorf("got seq %d text %q, want seq %d", m.Seq, m.Text, want)
		}
	}
	// The cursor is tracked via rewrites; a host without a log writes epoch 0.
	waitFor(t, "cursor", func() bool {
		return st.Request().Header[burst.HdrCursor] == "0.3"
	})
}

func TestMessengerGapRepair(t *testing.T) {
	e := newEnv(t)
	cli := e.dial(t)
	alice, bob := socialgraph.UserID(13), socialgraph.UserID(14)
	tid := e.createThread(t, alice, "13,14")

	st := e.subscribe(t, cli, AppMessenger, "messenger", bob, nil)
	waitFor(t, "sub", func() bool { return len(e.pylon.Subscribers(MailboxTopic(bob))) == 1 })

	// msg 1 delivered live.
	_, _ = e.was.Mutate(alice, fmt.Sprintf(`sendMessage(threadID: %d, text: "one")`, tid))
	recvPayload(t, st)

	// Detach the host from Pylon behind its back: msg 2's event is lost
	// in transit (best-effort delivery failure).
	_ = e.pylon.Unsubscribe(MailboxTopic(bob), "brass-1")
	_, _ = e.was.Mutate(alice, fmt.Sprintf(`sendMessage(threadID: %d, text: "two")`, tid))
	// Reattach and send msg 3: the BRASS sees seq 3 after 1 — a gap — and
	// repairs from the mailbox.
	if err := e.pylon.Subscribe(MailboxTopic(bob), "brass-1"); err != nil {
		t.Fatal(err)
	}
	_, _ = e.was.Mutate(alice, fmt.Sprintf(`sendMessage(threadID: %d, text: "three")`, tid))

	// The repair is one batch: both rows, then their resume patch, which
	// the client applies to its stored request before it hands the batch out.
	var batch *burst.Received
	select {
	case batch = <-bursttest.Events(t, st):
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the repair")
	}
	var texts []string
	for _, d := range batch.Deltas {
		var m MessagePayload
		if d.Type == burst.DeltaPayload && json.Unmarshal(d.Payload, &m) == nil {
			texts = append(texts, m.Text)
		}
	}
	if len(texts) != 2 || texts[0] != "two" || texts[1] != "three" {
		t.Errorf("repaired order = %v, want [two three]", texts)
	}
	if got := st.Request().Header[burst.HdrCursor]; got != "0.3" {
		t.Errorf("cursor after the repair batch = %q, want 0.3", got)
	}
}

// recvMessages reads batches until n Messenger payloads have arrived and
// returns their texts in order.
func recvMessages(t *testing.T, st *burst.ClientStream, n int) []string {
	t.Helper()
	var got []string
	for len(got) < n {
		select {
		case batch := <-bursttest.Events(t, st):
			for _, d := range batch.Deltas {
				if d.Type == burst.DeltaPayload {
					var m MessagePayload
					if err := json.Unmarshal(d.Payload, &m); err != nil {
						t.Fatal(err)
					}
					got = append(got, m.Text)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %d messages; got %v", n, got)
		}
	}
	return got
}

// On a host without a log a stream's cursor is 0.N, which no log serves: the
// resubscribe that carries it replays the mailbox after N, and the host's log
// counters do not move.
func TestMessengerResumeAfterReconnect(t *testing.T) {
	e := newEnv(t)
	alice, bob := socialgraph.UserID(15), socialgraph.UserID(16)
	tid := e.createThread(t, alice, "15,16")

	// First session: receive msg 1, then the device goes dark.
	cli1 := e.dial(t)
	st1 := e.subscribe(t, cli1, AppMessenger, "messenger", bob, nil)
	waitFor(t, "sub", func() bool { return len(e.pylon.Subscribers(MailboxTopic(bob))) == 1 })
	_, _ = e.was.Mutate(alice, fmt.Sprintf(`sendMessage(threadID: %d, text: "before drop")`, tid))
	recvPayload(t, st1)
	waitFor(t, "cursor 0.1", func() bool {
		return st1.Request().Header[burst.HdrCursor] == "0.1"
	})
	saved := st1.Request() // device persists the rewritten request
	cli1.Close()
	waitFor(t, "stream closed server-side", func() bool {
		return len(e.pylon.Subscribers(MailboxTopic(bob))) == 0
	})

	// Messages sent while disconnected.
	_, _ = e.was.Mutate(alice, fmt.Sprintf(`sendMessage(threadID: %d, text: "while offline 1")`, tid))
	_, _ = e.was.Mutate(alice, fmt.Sprintf(`sendMessage(threadID: %d, text: "while offline 2")`, tid))

	// Reconnect with the stored (rewritten) request: catch-up delivers
	// exactly the missed messages, in order.
	cli2 := e.dial(t)
	st2, err := cli2.Subscribe(saved)
	if err != nil {
		t.Fatal(err)
	}
	got := recvMessages(t, st2, 2) // the catch-up is one batch of two payloads
	if len(got) != 2 || got[0] != "while offline 1" || got[1] != "while offline 2" {
		t.Errorf("catch-up = %v", got)
	}
	if r, x := e.host.LogResumes.Value(), e.host.LogExpired.Value(); r != 0 || x != 0 {
		t.Errorf("a host without a log counted %d log resumes and %d expired cursors", r, x)
	}
}

func TestFeedCommentsPassThrough(t *testing.T) {
	e := newEnv(t)
	cli := e.dial(t)
	viewer := socialgraph.UserID(17)
	commenter := socialgraph.UserID(18)
	st := e.subscribe(t, cli, AppFeedComments, "feedPostComments(postID: 300)", viewer, nil)
	waitFor(t, "sub", func() bool { return len(e.pylon.Subscribers(PostTopic(300))) == 1 })
	if _, err := e.was.Mutate(commenter, `postFeedComment(postID: 300, text: "nice post")`); err != nil {
		t.Fatal(err)
	}
	d := recvPayload(t, st)
	var p CommentPayload
	if err := json.Unmarshal(d.Payload, &p); err != nil {
		t.Fatal(err)
	}
	if p.Text != "nice post" || p.Author != uint64(commenter) {
		t.Errorf("payload = %+v", p)
	}
}

func TestSuiteRegistersEverything(t *testing.T) {
	e := newEnv(t)
	// All six apps resolvable via a quick subscription resolution.
	exprs := map[string]string{
		AppLiveComments: "liveVideoComments(videoID: 1)",
		AppActiveStatus: "activeStatus",
		AppStories:      "storiesTray",
		AppMessenger:    "messenger",
		AppTyping:       "typingIndicator(threadID: 1, peer: 2)",
		AppFeedComments: "feedPostComments(postID: 1)",
	}
	for app, expr := range exprs {
		if _, err := e.was.ResolveSubscription(1, expr); err != nil {
			t.Errorf("%s: %v", app, err)
		}
	}
}

func TestVideoCommentsPollQuery(t *testing.T) {
	e := newEnv(t)
	commenter := socialgraph.UserID(19)
	for i := 0; i < 5; i++ {
		if _, err := e.was.Mutate(commenter,
			fmt.Sprintf(`postComment(videoID: 400, text: "c%d")`, i)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := e.was.Query(1, "videoComments(videoID: 400, limit: 3)")
	if err != nil {
		t.Fatal(err)
	}
	var comments []CommentPayload
	if err := json.Unmarshal(out, &comments); err != nil {
		t.Fatal(err)
	}
	if len(comments) != 3 {
		t.Errorf("limit ignored: %d comments", len(comments))
	}
	// The resolver writes the answer itself: json.Marshal's bytes, and `[]`
	// for a video nobody commented on.
	if want, _ := json.Marshal(comments); string(out) != string(want) {
		t.Errorf("answer %s, json.Marshal of its rows gives %s", out, want)
	}
	if out, err := e.was.Query(1, "videoComments(videoID: 401)"); err != nil || string(out) != "[]" {
		t.Errorf("a video without comments answered %q, %v; want []", out, err)
	}
	// Range query cost accounted in TAO stats.
	if e.tao.Stats().RangeQueries.Value() == 0 {
		t.Error("poll query not accounted as range query")
	}

	// A poll is a delivery: the comments of an author the viewer blocked
	// are skipped, and another viewer still reads them.
	blocked := socialgraph.UserID(23)
	e.graph.Block(1, blocked)
	for i := 0; i < 2; i++ {
		if _, err := e.was.Mutate(blocked,
			fmt.Sprintf(`postComment(videoID: 400, text: "b%d")`, i)); err != nil {
			t.Fatal(err)
		}
	}
	authors := func(viewer socialgraph.UserID) map[uint64]int {
		out, err := e.was.Query(viewer, "videoComments(videoID: 400, limit: 10)")
		if err != nil {
			t.Fatal(err)
		}
		var comments []CommentPayload
		if err := json.Unmarshal(out, &comments); err != nil {
			t.Fatal(err)
		}
		n := map[uint64]int{}
		for _, c := range comments {
			n[c.Author]++
		}
		return n
	}
	if got := authors(1); got[uint64(blocked)] != 0 || got[uint64(commenter)] != 5 {
		t.Errorf("viewer 1, who blocked %d, polled comments by author %v", blocked, got)
	}
	if got := authors(2); got[uint64(blocked)] != 2 || got[uint64(commenter)] != 5 {
		t.Errorf("viewer 2 polled comments by author %v, want 5 by %d and 2 by %d", got, commenter, blocked)
	}
}

// An in-order Messenger event is ONE decision and ONE batch: the payload and
// a rewrite patching exactly the cursor. With the per-stream
// delivery rate exhausted the payload is shed but the rewrite still goes out,
// and the durable log already holds the entry the device will resume from.
func TestMessengerPayloadAndResumePatchShareOneBatch(t *testing.T) {
	e := newEnv(t)
	host := brass.NewHost(brass.HostConfig{
		ID: "brass-log", Region: "us",
		Durlog:            true,
		StreamDeliverRate: 0.01, StreamDeliverBurst: 1, // one delivery, then shed
	}, e.pylon, e.was, nil)
	e.suite.RegisterBRASS(host)
	t.Cleanup(host.Close)
	a, b := net.Pipe()
	cli := burst.NewClient("relay", a, nil)
	cli.Relay = true // see rewrites as a proxy would
	host.AcceptSession("sess", b)
	t.Cleanup(func() { cli.Close() })

	alice, bob := socialgraph.UserID(17), socialgraph.UserID(18)
	tid := e.createThread(t, alice, "17,18")
	st := e.subscribe(t, cli, AppMessenger, "messenger", bob, nil)
	waitFor(t, "sub", func() bool { return len(e.pylon.Subscribers(MailboxTopic(bob))) == 1 })
	send := func(text string) {
		t.Helper()
		if _, err := e.was.Mutate(alice, fmt.Sprintf(`sendMessage(threadID: %d, text: %q)`, tid, text)); err != nil {
			t.Fatal(err)
		}
	}
	// batchWith returns the first batch carrying a rewrite of the cursor to seq.
	batchWith := func(seq string) []burst.Delta {
		t.Helper()
		for {
			select {
			case batch := <-bursttest.Events(t, st):
				for _, d := range batch.Deltas {
					if d.Type == burst.DeltaRewriteRequest && d.Header[burst.HdrCursor] == "1."+seq {
						return batch.Deltas
					}
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("no rewrite of the cursor to 1.%s", seq)
			}
		}
	}

	// The open's own catch-up first: a message that lands before the open
	// reads the mailbox would arrive in that admission-free batch instead.
	batchWith("0")
	send("one")
	batch := batchWith("1")
	if len(batch) != 2 || batch[0].Type != burst.DeltaPayload || batch[0].Seq != 1 {
		t.Fatalf("in-order delivery arrived as %+v, want ONE batch [payload 1, rewrite]", batch)
	}
	patch := batch[1].Header
	if len(patch) != 1 || batch[1].Body != nil {
		t.Errorf("resume rewrite = %+v, want a patch of exactly the cursor", batch[1])
	}

	send("two") // over the rate: shed
	batch = batchWith("2")
	if len(batch) != 1 || len(batch[0].Header) != 1 {
		t.Errorf("shed delivery arrived as %+v, want the resume patch alone", batch)
	}
	if got := host.StreamSheds.Value(); got != 1 {
		t.Errorf("StreamSheds = %d, want 1", got)
	}
	cur, _ := durlog.Parse(patch[burst.HdrCursor])
	entries, _, err := host.DurLog().ReadFrom(string(MailboxTopic(bob)), cur)
	if err != nil || len(entries) != 1 || entries[0].Seq != 2 {
		t.Errorf("log after cursor %v = %+v, %v; want the shed seq 2", cur, entries, err)
	}
}

// Messenger lends each resume patch from the one buffer its stream formats
// the cursor into, over again for every delivery: nothing on the way may keep
// it. With that buffer overwritten once the last Push has returned, the stored
// request of every holder — the host's, both relays' and the device's — still
// reads the cursor that was sent.
func TestMessengerResumePatchIsLent(t *testing.T) {
	e := newEnv(t)
	host := brass.NewHost(brass.HostConfig{ID: "brass-log", Region: "us", Durlog: true}, e.pylon, e.was, nil)
	e.suite.RegisterBRASS(host)
	t.Cleanup(host.Close)
	pn := edge.NewPipeNetwork()
	pn.Register("brass", func(rwc io.ReadWriteCloser) { host.AcceptSession("brass-in", rwc) })
	relayed := map[string]chan *burst.ServerSession{"rproxy": make(chan *burst.ServerSession, 1), "pop": make(chan *burst.ServerSession, 1)}
	for name, up := range map[string]string{"rproxy": "brass", "pop": "rproxy"} {
		p := edge.NewProxy(name, pn, edge.StaticRouter(up))
		t.Cleanup(p.Close)
		pn.Register(name, func(rwc io.ReadWriteCloser) { relayed[name] <- p.AcceptSession(name+"-down", rwc) })
	}
	rwc, err := pn.Dial("pop")
	if err != nil {
		t.Fatal(err)
	}
	cli := burst.NewClient("device", rwc, nil)
	t.Cleanup(func() { cli.Close() })

	alice, bob := socialgraph.UserID(17), socialgraph.UserID(18)
	tid := e.createThread(t, alice, "17,18")
	st := e.subscribe(t, cli, AppMessenger, "messenger", bob, nil)
	pop, rproxy := <-relayed["pop"], <-relayed["rproxy"]
	waitFor(t, "sub", func() bool { return len(e.pylon.Subscribers(MailboxTopic(bob))) == 1 })
	const sent = 12 // the cursor's seq reaches two digits: the buffer's bytes move
	for i := 1; i <= sent; i++ {
		if _, err := e.was.Mutate(alice, fmt.Sprintf(`sendMessage(threadID: %d, text: "m%d")`, tid, i)); err != nil {
			t.Fatal(err)
		}
		if d := recvPayload(t, st); d.Seq != uint64(i) {
			t.Fatalf("payload %d arrived as seq %d", i, d.Seq)
		}
	}
	inst, err := host.Instance(AppMessenger)
	if err != nil {
		t.Fatal(err)
	}
	streams := inst.StreamsForTopic(MailboxTopic(bob))
	if len(streams) != 1 {
		t.Fatalf("%d host streams on bob's mailbox, want 1", len(streams))
	}
	tail, ok := host.DurLog().TailCursor(string(MailboxTopic(bob)))
	if !ok || tail.Seq != sent {
		t.Fatalf("bob's log tail is %+v (%v), want seq %d", tail, ok, sent)
	}
	want := tail.String()
	// The device has the last payload, so every hop has merged the patch that
	// rode with it; the app's loop is idle until the next event.
	tokens := &streams[0].State.(*messengerStream).tokens
	if string(tokens[:len(want)]) != want {
		t.Fatalf("the stream's tokens buffer holds %q, want the last patch's cursor %q", tokens, want)
	}
	for i := range tokens {
		tokens[i] = 0xDB
	}
	holders := map[string]func(string) string{
		"host":   streams[0].Header,
		"rproxy": rproxy.Streams()[0].HeaderField,
		"pop":    pop.Streams()[0].HeaderField,
		"device": st.HeaderField,
	}
	for name, read := range holders {
		if got := read(burst.HdrCursor); got != want {
			t.Errorf("%s's stored cursor reads %q, want %q", name, got, want)
		}
	}
}

// A stream open is answered from ONE place (messengerInstance.resume): the
// floor is the request's cursor's seq, the suffix comes from the host's log
// when the cursor proves continuity and from the mailbox when it does not —
// a cursor from a dead epoch replays the mailbox from its seq and counts one
// expired cursor — and either way it goes out with its new cursor as one
// batch that the stream's exhausted admission bucket cannot shed.
func TestMessengerResumeChoosesLogOrMailbox(t *testing.T) {
	e := newEnv(t)
	host := brass.NewHost(brass.HostConfig{
		ID: "brass-log", Region: "us",
		Durlog:            true,
		StreamDeliverRate: 0.01, StreamDeliverBurst: 1,
	}, e.pylon, e.was, nil)
	e.suite.RegisterBRASS(host)
	t.Cleanup(host.Close)
	a, b := net.Pipe()
	cli := burst.NewClient("relay", a, nil)
	cli.Relay = true // see rewrites as a proxy would
	host.AcceptSession("sess", b)
	t.Cleanup(func() { cli.Close() })

	alice, bob := socialgraph.UserID(19), socialgraph.UserID(20)
	tid := e.createThread(t, alice, "19,20")
	topic := string(MailboxTopic(bob))

	// A first stream keeps the host on the topic while ten messages flow:
	// all but the first are shed by admission, all ten are journaled.
	e.subscribe(t, cli, AppMessenger, "messenger", bob, nil)
	waitFor(t, "sub", func() bool { return len(e.pylon.Subscribers(MailboxTopic(bob))) == 1 })
	for i := 1; i <= 10; i++ {
		if _, err := e.was.Mutate(alice, fmt.Sprintf(`sendMessage(threadID: %d, text: "m%d")`, tid, i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "ten entries journaled", func() bool {
		tail, _ := host.DurLog().TailCursor(topic)
		return tail == durlog.Cursor{Epoch: 1, Seq: 10}
	})

	for _, tc := range []struct {
		name, cursor             string
		resumes, expired, served int64 // what the open adds to the host's log counters
	}{
		{"live epoch: from the log", "1.5", 1, 0, 5},
		{"dead epoch: from the mailbox", "7.5", 0, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sheds := host.StreamSheds.Value()
			resumes, expired, served := host.LogResumes.Value(), host.LogExpired.Value(), host.LogCatchUpDeltas.Value()
			st := e.subscribe(t, cli, AppMessenger, "messenger", bob, burst.Header{
				burst.HdrCursor:         tc.cursor,
				brass.HdrAdmissionState: fmt.Sprintf("0@%d", time.Now().UnixNano()), // bucket exhausted
			})
			var batch []burst.Delta
			for len(batch) == 0 {
				select {
				case rc := <-bursttest.Events(t, st):
					if rc.Deltas[0].Type == burst.DeltaPayload {
						batch = rc.Deltas
					}
				case <-time.After(5 * time.Second):
					t.Fatal("no catch-up batch")
				}
			}
			if len(batch) != 6 {
				t.Fatalf("catch-up batch has %d deltas, want payloads 6..10 and the resume patch in ONE batch: %+v", len(batch), batch)
			}
			for i, d := range batch[:5] {
				if d.Type != burst.DeltaPayload || d.Seq != uint64(6+i) {
					t.Fatalf("delta %d = %v seq %d, want payload seq %d", i, d.Type, d.Seq, 6+i)
				}
			}
			if p := batch[5]; p.Type != burst.DeltaRewriteRequest || len(p.Header) != 1 || p.Header[burst.HdrCursor] != "1.10" {
				t.Errorf("resume patch = %+v, want the live cursor 1.10 alone", p)
			}
			if got := host.StreamSheds.Value() - sheds; got != 0 {
				t.Errorf("catch-up shed %d payloads; it must bypass admission", got)
			}
			if r, x, s := host.LogResumes.Value()-resumes, host.LogExpired.Value()-expired, host.LogCatchUpDeltas.Value()-served; r != tc.resumes || x != tc.expired || s != tc.served {
				t.Errorf("log counters moved by resumes=%d expired=%d catch-up deltas=%d, want %d %d %d", r, x, s, tc.resumes, tc.expired, tc.served)
			}
		})
	}
}
