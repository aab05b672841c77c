package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/device"
	"bladerunner/internal/socialgraph"
)

// TestMixedWorkloadSoak drives every application through the full
// deployment concurrently — the "over 100 applications onboarded" reality
// in miniature — and checks the system-wide invariants: no lost Pylon
// accounting, decisions >= deliveries, every app delivered something, and
// the cluster tears down cleanly.
func TestMixedWorkloadSoak(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Graph.Users = 300
	cfg.Graph.MeanFriends = 15
	cfg.Graph.BlockProb = 0
	c, err := NewCluster(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.Apps.LVC.RateLimit = 10 * time.Millisecond
	c.Apps.LVC.MinScore = 0
	c.Apps.ActiveStatus.BatchInterval = 20 * time.Millisecond
	c.Apps.Reactions.FlushInterval = 20 * time.Millisecond

	// One viewer device per application, plus a messenger thread.
	type sub struct {
		app  string
		expr string
		dev  *device.Device
		st   *device.Stream
	}
	alice := c.NewDevice(101)
	defer alice.Close()
	out, err := alice.Mutate(`createThread(members: "101,1")`)
	if err != nil {
		t.Fatal(err)
	}
	var tid uint64
	if err := json.Unmarshal(out, &tid); err != nil {
		t.Fatalf("createThread replied %q: %v", out, err)
	}

	viewer, friend := friendPairCore(t, c.Graph)
	subs := []*sub{
		{app: apps.AppLiveComments, expr: "liveVideoComments(videoID: 7)"},
		{app: apps.AppFeedComments, expr: "feedPostComments(postID: 9)"},
		{app: apps.AppTyping, expr: "typingIndicator(threadID: 4, peer: 44)"},
		{app: apps.AppActiveStatus, expr: "activeStatus"},
		{app: apps.AppStories, expr: "storiesTray"},
		{app: apps.AppMessenger, expr: "messenger"},
		{app: apps.AppReactions, expr: "liveVideoReactions(videoID: 7)"},
		{app: apps.AppNotifications, expr: "websiteNotifications"},
	}
	received := make(map[string]*atomic.Int64)
	for _, s := range subs {
		user := socialgraph.UserID(1)
		if s.app == apps.AppActiveStatus || s.app == apps.AppStories {
			user = viewer // needs friends
		}
		s.dev = c.NewDevice(user)
		defer s.dev.Close()
		if err := s.dev.Connect(); err != nil {
			t.Fatal(err)
		}
		st, err := s.dev.Subscribe(s.app, s.expr, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.app, err)
		}
		s.st = st
		ctr := &atomic.Int64{}
		received[s.app] = ctr
		go func(app string, st *device.Stream, ctr *atomic.Int64) {
			for d, ok := st.Next(); ok; d, ok = st.Next() {
				if d.Type == burst.DeltaPayload {
					ctr.Add(1)
				}
			}
		}(s.app, st, ctr)
	}

	// Wait until every app's serving host registered its topics.
	waitFor(t, "all subscriptions live", func() bool {
		var live int64
		for _, h := range c.Hosts {
			live += h.StreamsOpened.Value() - h.StreamsClosed.Value()
		}
		return live == int64(len(subs))
	})
	// ActiveStatus/Stories fan out one topic per friend; make sure the
	// friend topics exist before driving load.
	waitFor(t, "friend topics", func() bool {
		return len(c.Pylon.Subscribers(apps.StatusTopic(friend))) >= 1 &&
			len(c.Pylon.Subscribers(apps.StoriesTopic(uint64(friend)))) >= 1
	})

	// Drive 2 rounds x concurrent mutators across all apps.
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(99))
	mutate := func(user socialgraph.UserID, expr string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := c.NewDevice(user)
			defer d.Close()
			if _, err := d.Mutate(expr); err != nil {
				t.Errorf("%s: %v", expr, err)
			}
		}()
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 5; i++ {
			author := socialgraph.UserID(150 + rng.Intn(100))
			mutate(author, fmt.Sprintf(`postComment(videoID: 7, text: "soak c%d-%d")`, round, i))
			mutate(author, fmt.Sprintf(`postFeedComment(postID: 9, text: "soak f%d-%d")`, round, i))
			mutate(author, fmt.Sprintf(`reactToVideo(videoID: 7, kind: "like")`))
		}
		mutate(44, `setTyping(threadID: 4, on: "true")`)
		mutate(friend, "reportActive")
		mutate(friend, fmt.Sprintf(`postStory(content: "soak story %d")`, round))
		mutate(101, fmt.Sprintf(`sendMessage(threadID: %d, text: "soak m%d")`, tid, round))
		mutate(102, `notify(user: 1, kind: "mention", text: "soak")`)
		wg.Wait()
		time.Sleep(50 * time.Millisecond)
	}
	// Let timers (rate limits, batch flushes) drain.
	time.Sleep(300 * time.Millisecond)
	c.Quiesce()

	// Every application delivered at least one update to its viewer.
	for app, ctr := range received {
		if ctr.Load() == 0 {
			t.Errorf("app %s delivered nothing", app)
		}
	}
	// System invariants.
	if c.TotalDeliveries() > c.TotalDecisions() {
		t.Errorf("deliveries %d > decisions %d", c.TotalDeliveries(), c.TotalDecisions())
	}
	if c.Pylon.Publishes.Value() == 0 || c.Pylon.Deliveries.Value() == 0 {
		t.Error("pylon accounting empty")
	}
	if c.WAS.PrivacyChecks.Value() == 0 {
		t.Error("no privacy checks ran")
	}
	// TAO point reads dominate (payload fetches), with zero poll-style
	// range reads from the streaming path beyond app-internal queries.
	if c.TAO.Stats().PointQueries.Value() == 0 {
		t.Error("no TAO point queries")
	}
}

func friendPairCore(t *testing.T, g *socialgraph.Graph) (socialgraph.UserID, socialgraph.UserID) {
	t.Helper()
	for id := socialgraph.UserID(1); id <= socialgraph.UserID(g.NumUsers()); id++ {
		if fs := g.Friends(id); len(fs) > 0 {
			return id, fs[0]
		}
	}
	t.Fatal("no friends in graph")
	return 0, 0
}
