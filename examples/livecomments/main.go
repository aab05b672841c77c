// LiveVideoComments at burst scale: a popular live moment (the lunar
// eclipse of paper §2) generates a storm of comments from many users.
// Each viewer receives only the highest-ranked, privacy-checked comments,
// rate-limited to one push per interval — while every comment is durably
// stored in TAO.
//
// Run with:
//
//	go run ./examples/livecomments
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"sync/atomic"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
)

const (
	videoID  = 99
	nViewers = 12
	nBurst   = 300
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Graph.Users = 500
	cluster, err := core.NewCluster(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Paper values scaled 10x for the demo: 200ms rate limit (paper: 2s),
	// 1s relevance TTL (paper: 10s), ranked buffer of 5.
	cluster.Apps.LVC.RateLimit = 200 * time.Millisecond
	cluster.Apps.LVC.BufferTTL = 1 * time.Second
	// Auto-switch to the high-volume strategy (§3.4) once the burst
	// exceeds 150 comments inside a 10s window.
	cluster.Apps.LVC.ConfigureHotDetection(150, 10*time.Second)

	// Viewers tune in through the edge.
	var delivered atomic.Int64
	streams := make([]*device.Stream, nViewers)
	for i := 0; i < nViewers; i++ {
		viewer := cluster.NewDevice(socialgraph.UserID(i + 1))
		defer viewer.Close()
		if err := viewer.Connect(); err != nil {
			log.Fatal(err)
		}
		st, err := viewer.Subscribe(apps.AppLiveComments,
			fmt.Sprintf("liveVideoComments(videoID: %d)", videoID), nil)
		if err != nil {
			log.Fatal(err)
		}
		streams[i] = st
		go func(i int) {
			for delta, ok := st.Next(); ok; delta, ok = st.Next() {
				if delta.Type != burst.DeltaPayload {
					continue
				}
				var c apps.CommentPayload
				_ = json.Unmarshal(delta.Payload, &c)
				if delivered.Add(1) <= 5 {
					fmt.Printf("viewer %2d sees: %q (score %.2f)\n", i, c.Text, c.Score)
				}
			}
		}(i)
	}
	if !cluster.WaitForStreams(apps.LVCTopic(videoID), streams, 10*time.Second) {
		log.Fatal("a viewer's BRASS host never subscribed to the video")
	}
	clock := sim.RealClock{}

	// The eclipse moment: a comment storm.
	fmt.Printf("posting %d comments in a burst...\n", nBurst)
	rng := rand.New(rand.NewSource(42))
	start := clock.Now()
	for i := 0; i < nBurst; i++ {
		author := socialgraph.UserID(100 + rng.Intn(400))
		_, err := cluster.WAS.Mutate(author, fmt.Sprintf(
			`postComment(videoID: %d, text: "eclipse comment %d")`, videoID, i))
		if err != nil {
			log.Fatal(err)
		}
	}
	burstDur := clock.Now().Sub(start)
	sim.Sleep(clock, 1500*time.Millisecond) // let rate-limited pushes drain
	cluster.Quiesce()

	fmt.Printf("\nburst of %d comments posted in %v\n", nBurst, burstDur.Round(time.Millisecond))
	fmt.Printf("comments stored in TAO:      %d (all of them)\n",
		countComments(cluster))
	fmt.Printf("pylon publishes:             %d (spam dropped at WAS)\n",
		cluster.Pylon.Publishes.Value())
	fmt.Printf("BRASS decisions:             %d\n", cluster.TotalDecisions())
	fmt.Printf("pushes to viewers:           %d (rate-limited to top-ranked)\n", delivered.Load())
	fmt.Printf("per-viewer pushes:           %.1f (vs %d comments — device and last mile protected)\n",
		float64(delivered.Load())/nViewers, nBurst)
	fmt.Printf("high-volume strategy active: %v (auto-detected mid-burst; ordinary\n",
		cluster.Apps.LVC.IsHotVideo(videoID))
	fmt.Println("  comments now route via per-poster topics toward friends only)")
	if delivered.Load() == 0 {
		log.Fatal("no viewer received a push")
	}
}

func countComments(c *core.Cluster) int {
	return c.TAO.AssocCount(tao.ObjID(videoID), "video_comment")
}
