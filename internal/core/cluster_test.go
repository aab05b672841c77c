package core

import (
	"encoding/json"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
	"bladerunner/internal/device"
	"bladerunner/internal/socialgraph"
)

// payload returns the next payload st hands out, skipping flow statuses. It
// reports false if none comes within the given time or the stream ends.
func payload(t *testing.T, st *device.Stream, within time.Duration) (burst.Delta, bool) {
	t.Helper()
	ev := bursttest.Events(t, st)
	deadline := time.After(within)
	for {
		select {
		case d, ok := <-ev:
			if !ok {
				return d, false
			}
			if d.Type == burst.DeltaPayload {
				return d, true
			}
		case <-deadline:
			return burst.Delta{}, false
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// deviceStreamRef lets tests poll a stream's current request lazily.
type deviceStreamRef struct {
	req func() burst.Subscribe
}

func newCluster(t *testing.T) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Graph.Users = 100
	cfg.Graph.MeanFriends = 10
	cfg.Graph.BlockProb = 0
	c, err := NewCluster(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Apps.LVC.RateLimit = 10 * time.Millisecond
	t.Cleanup(c.Close)
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{}, nil); err == nil {
		t.Error("empty config accepted")
	}
	cfg := DefaultConfig()
	cfg.POPs = 0
	if _, err := NewCluster(cfg, nil); err == nil {
		t.Error("zero POPs accepted")
	}
}

func TestClusterTopology(t *testing.T) {
	c := newCluster(t)
	if len(c.Hosts) != 4 {
		t.Errorf("hosts = %d, want 4", len(c.Hosts))
	}
	if len(c.Proxies) != 2 || len(c.POPs) != 2 {
		t.Errorf("proxies=%d pops=%d", len(c.Proxies), len(c.POPs))
	}
	if got := len(c.POPTargets()); got != 2 {
		t.Errorf("POPTargets = %d", got)
	}
}

// TestClusterEndToEndLVC drives the complete production path: device →
// POP → reverse proxy → BRASS → Pylon/WAS/TAO and back.
func TestClusterEndToEndLVC(t *testing.T) {
	c := newCluster(t)
	viewer := c.NewDevice(1)
	defer viewer.Close()
	if err := viewer.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := viewer.Subscribe(apps.AppLiveComments, "liveVideoComments(videoID: 42)", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pylon subscription", func() bool {
		return len(c.Pylon.Subscribers(apps.LVCTopic(42))) >= 1
	})

	commenter := c.NewDevice(2)
	defer commenter.Close()
	if _, err := commenter.Mutate(`postComment(videoID: 42, text: "hello from the edge")`); err != nil {
		t.Fatal(err)
	}

	d, ok := payload(t, st, 10*time.Second)
	if !ok {
		t.Fatal("comment never crossed the full path")
	}
	var p apps.CommentPayload
	if err := json.Unmarshal(d.Payload, &p); err != nil {
		t.Fatal(err)
	}
	if p.Text != "hello from the edge" || p.Author != 2 {
		t.Errorf("payload = %+v", p)
	}

	waitFor(t, "counters", func() bool {
		return c.TotalDecisions() > 0 && totalDeliveries(c) > 0
	})
}

// totalDeliveries sums update deliveries across all BRASS hosts.
func totalDeliveries(c *Cluster) int64 {
	var total int64
	for _, h := range c.Hosts {
		total += h.Deliveries.Value()
	}
	return total
}

// TestClusterSurvivesBRASSFailure kills the serving BRASS host and checks
// the stream is repaired to another host with delivery continuing.
func TestClusterSurvivesBRASSFailure(t *testing.T) {
	c := newCluster(t)
	viewer := c.NewDevice(3)
	defer viewer.Close()
	if err := viewer.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := viewer.Subscribe(apps.AppTyping, "typingIndicator(threadID: 9, peer: 4)", nil)
	if err != nil {
		t.Fatal(err)
	}
	topic := apps.TypingTopic(9, 4)
	waitFor(t, "subscription", func() bool { return len(c.Pylon.Subscribers(topic)) >= 1 })

	// Find and kill the serving host.
	servingID := c.Pylon.Subscribers(topic)[0]
	var serving int = -1
	for i, h := range c.Hosts {
		if h.ID() == servingID {
			serving = i
			break
		}
	}
	if serving == -1 {
		t.Fatalf("serving host %q not found", servingID)
	}
	c.Net.SetDown(true, servingID)
	c.Hosts[serving].Close()

	// The proxy repairs the stream to another BRASS, which resubscribes
	// with Pylon.
	waitFor(t, "repair to another host", func() bool {
		subs := c.Pylon.Subscribers(topic)
		return len(subs) >= 1 && subs[0] != servingID
	})

	peer := c.NewDevice(4)
	defer peer.Close()
	if _, err := peer.Mutate(`setTyping(threadID: 9, on: "true")`); err != nil {
		t.Fatal(err)
	}
	d, ok := payload(t, st, 10*time.Second)
	if !ok {
		t.Fatal("no delivery after BRASS failover")
	}
	var p apps.TypingPayload
	if err := json.Unmarshal(d.Payload, &p); err != nil {
		t.Fatal(err)
	}
	if p.User != 4 || !p.Typing {
		t.Errorf("payload = %+v", p)
	}
}

func TestClusterMultipleDevicesShareTopic(t *testing.T) {
	c := newCluster(t)
	const n = 4
	var sts []*device.Stream
	var streams []*deviceStreamRef
	for i := 0; i < n; i++ {
		d := c.NewDevice(socialgraph.UserID(10 + i))
		defer d.Close()
		if err := d.Connect(); err != nil {
			t.Fatal(err)
		}
		st, err := d.Subscribe(apps.AppFeedComments, "feedPostComments(postID: 77)", nil)
		if err != nil {
			t.Fatal(err)
		}
		sts = append(sts, st)
		streams = append(streams, &deviceStreamRef{req: st.Request})
	}
	// Every stream may land on a different BRASS host; wait until each
	// stream's serving host (identified by the sticky-routing rewrite) is
	// registered with Pylon for the topic.
	waitFor(t, "all serving hosts subscribed", func() bool {
		subs := map[string]bool{}
		for _, s := range c.Pylon.Subscribers(apps.PostTopic(77)) {
			subs[s] = true
		}
		for _, sref := range streams {
			host := sref.req().Header[burst.HdrStickyBRASS]
			if host == "" || !subs[host] {
				return false
			}
		}
		return true
	})
	author := c.NewDevice(50)
	defer author.Close()
	if _, err := author.Mutate(`postFeedComment(postID: 77, text: "to all")`); err != nil {
		t.Fatal(err)
	}
	for i, st := range sts {
		if _, ok := payload(t, st, 10*time.Second); !ok {
			t.Fatalf("device %d never got the comment", i)
		}
	}
}
