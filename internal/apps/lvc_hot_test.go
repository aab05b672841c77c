package apps

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/was"
)

func TestHotTrackerAutoDetection(t *testing.T) {
	h := newHotTracker(10, time.Second)
	now := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		if h.observe(5, now) {
			t.Fatalf("hot after only %d comments", i+1)
		}
	}
	if !h.observe(5, now) {
		t.Error("not hot after exceeding threshold")
	}
	if !h.isHot(5) {
		t.Error("isHot disagrees")
	}
	if h.isHot(6) {
		t.Error("unrelated video hot")
	}
}

func TestHotTrackerWindowResets(t *testing.T) {
	h := newHotTracker(10, time.Second)
	now := time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 8; i++ {
		h.observe(5, now)
	}
	// Window expires; the count restarts, so the video never goes hot.
	later := now.Add(2 * time.Second)
	for i := 0; i < 8; i++ {
		if h.observe(5, later) {
			t.Fatal("went hot across expired windows")
		}
	}
}

// findComment searches a user's plausible comment texts for one whose score
// lands in [lo, hi).
func findComment(g *socialgraph.Graph, uid socialgraph.UserID, lo, hi float64) (string, bool) {
	u := g.User(uid)
	for i := 0; i < 3000; i++ {
		text := fmt.Sprintf("take %d on this video", i)
		s := was.QualityScore(u, text)
		if s >= lo && s < hi {
			return text, true
		}
	}
	return "", false
}

func TestHotVideoRoutesByScore(t *testing.T) {
	e := newEnv(t)
	const vid = 500
	markHot(e.suite.LVC, vid)

	// The events must be observable: subscribe a host-level listener by
	// registering interest through a viewer whose friends include the
	// poster (per-user topic) — but here we check WAS routing directly
	// via Pylon subscriber-less publish counters per topic. Subscribe
	// fake markers to both topic kinds instead.
	poster := socialgraph.UserID(30)
	lowText, okLow := findComment(e.graph, poster, was.SpamThreshold, HotDiscardCutoff)
	midText, okMid := findComment(e.graph, poster, HotDiscardCutoff, HighRankCutoff)
	hiText, okHi := findComment(e.graph, poster, HighRankCutoff, 1.01)
	if !okLow || !okMid || !okHi {
		t.Skip("could not synthesize all three score classes")
	}

	before := e.pylon.Publishes.Value()
	// Low score: discarded (no publish).
	if _, err := e.was.Mutate(poster, fmt.Sprintf(`postComment(videoID: %d, text: "%s")`, vid, lowText)); err != nil {
		t.Fatal(err)
	}
	if e.pylon.Publishes.Value() != before {
		t.Error("low-score comment published during hot mode")
	}

	// Mid score: published to the per-poster topic.
	subsBefore := len(e.pylon.Subscribers(LVCUserTopic(vid, poster)))
	_ = subsBefore
	if _, err := e.was.Mutate(poster, fmt.Sprintf(`postComment(videoID: %d, text: "%s")`, vid, midText)); err != nil {
		t.Fatal(err)
	}
	if e.pylon.Publishes.Value() != before+1 {
		t.Error("mid-score comment not published")
	}

	// High score: published to the main topic.
	if _, err := e.was.Mutate(poster, fmt.Sprintf(`postComment(videoID: %d, text: "%s")`, vid, hiText)); err != nil {
		t.Fatal(err)
	}
	if e.pylon.Publishes.Value() != before+2 {
		t.Error("high-score comment not published")
	}
	// All three comments durable regardless of routing.
	out, err := e.was.Query(1, fmt.Sprintf("videoComments(videoID: %d, limit: 10)", vid))
	if err != nil {
		t.Fatal(err)
	}
	var comments []CommentPayload
	_ = json.Unmarshal(out, &comments)
	if len(comments) != 3 {
		t.Errorf("stored comments = %d, want 3", len(comments))
	}
}

func TestHotVideoSubscriptionIncludesFriendTopics(t *testing.T) {
	e := newEnv(t)
	const vid = 501
	markHot(e.suite.LVC, vid)
	viewer, _ := friendPair(t, e.graph)
	topics, err := e.was.ResolveSubscription(viewer, fmt.Sprintf("liveVideoComments(videoID: %d)", vid))
	if err != nil {
		t.Fatal(err)
	}
	wantTopics := 1 + len(e.graph.Friends(viewer))
	if len(topics) != wantTopics {
		t.Fatalf("topics = %d, want %d (main + one per friend)", len(topics), wantTopics)
	}
	if topics[0] != LVCTopic(vid) {
		t.Errorf("first topic = %s", topics[0])
	}
	// Cold video: single topic.
	cold, err := e.was.ResolveSubscription(viewer, "liveVideoComments(videoID: 502)")
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != 1 {
		t.Errorf("cold video topics = %d", len(cold))
	}
}

// markHot puts videoID in high-volume mode, as enough comments in one
// window would. Streams resolve their topics at open time, so it runs
// before viewers subscribe.
func markHot(a *LiveVideoComments, videoID uint64) {
	a.hot.mu.Lock()
	a.hot.hot[videoID] = true
	a.hot.mu.Unlock()
}

// TestHotVideoEndToEnd verifies the full high-volume path: an ordinary
// comment from a friend reaches the viewer via the per-poster topic, while
// the same comment from a stranger does not reach them at all.
func TestHotVideoEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full cluster end-to-end; skipped in -short")
	}
	e := newEnv(t)
	const vid = 503
	markHot(e.suite.LVC, vid)
	e.suite.LVC.MinScore = 0

	viewer, friend := friendPair(t, e.graph)
	// A non-friend poster.
	var stranger socialgraph.UserID
	for id := socialgraph.UserID(1); id <= socialgraph.UserID(e.graph.NumUsers()); id++ {
		if id != viewer && !slices.Contains(e.graph.Friends(viewer), id) {
			stranger = id
			break
		}
	}
	if stranger == 0 {
		t.Skip("no stranger found")
	}

	cli := e.dial(t)
	st := e.subscribe(t, cli, AppLiveComments,
		fmt.Sprintf("liveVideoComments(videoID: %d)", vid), viewer, nil)
	waitFor(t, "friend topic subscribed", func() bool {
		return len(e.pylon.Subscribers(LVCUserTopic(vid, friend))) == 1
	})

	// Mid-score comments from the friend and from the stranger.
	friendText, ok1 := findComment(e.graph, friend, HotDiscardCutoff, HighRankCutoff)
	strangerText, ok2 := findComment(e.graph, stranger, HotDiscardCutoff, HighRankCutoff)
	if !ok1 || !ok2 {
		t.Skip("could not synthesize mid-score comments")
	}
	if _, err := e.was.Mutate(stranger, fmt.Sprintf(`postComment(videoID: %d, text: "%s")`, vid, strangerText)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.was.Mutate(friend, fmt.Sprintf(`postComment(videoID: %d, text: "%s")`, vid, friendText)); err != nil {
		t.Fatal(err)
	}

	// Only the friend's comment arrives.
	d := recvPayload(t, st)
	var p CommentPayload
	if err := json.Unmarshal(d.Payload, &p); err != nil {
		t.Fatal(err)
	}
	if p.Author != uint64(friend) || p.Text != friendText {
		t.Errorf("got %+v, want friend's comment", p)
	}
	select {
	case batch := <-bursttest.Events(t, st):
		for _, dd := range batch.Deltas {
			if dd.Type == burst.DeltaPayload {
				var q CommentPayload
				_ = json.Unmarshal(dd.Payload, &q)
				if q.Author == uint64(stranger) {
					t.Error("stranger's ordinary comment leaked to the viewer")
				}
			}
		}
	case <-time.After(150 * time.Millisecond):
	}
}
