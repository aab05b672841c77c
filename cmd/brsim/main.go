// Command brsim boots a complete in-process Bladerunner deployment —
// social graph, TAO, Pylon (with its replicated subscription KV), WAS,
// BRASS hosts across regions, reverse proxies, and POPs — then drives a
// live workload through it and reports what happened.
//
// Usage:
//
//	brsim -viewers 50 -comments 200 -duration 3s
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
)

func main() {
	viewers := flag.Int("viewers", 30, "number of viewer devices")
	comments := flag.Int("comments", 150, "number of comments to post")
	videoID := flag.Uint64("video", 7, "live video id")
	duration := flag.Duration("duration", 3*time.Second, "how long to run after posting")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Graph.Users = *viewers + 200
	cfg.Graph.Seed = *seed
	cluster, err := core.NewCluster(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Scale LVC timers so the demo is responsive.
	cluster.Apps.LVC.RateLimit = 200 * time.Millisecond
	cluster.Apps.LVC.RankBeforePublish = false

	fmt.Printf("cluster: %d BRASS hosts, %d proxies, %d POPs, %d users\n",
		len(cluster.Hosts), len(cluster.Proxies), len(cluster.POPs), cluster.Graph.NumUsers())

	// Viewers subscribe to the live video through the full edge path.
	devices := make([]*device.Device, *viewers)
	streams := make([]*device.Stream, *viewers)
	received := make(chan int, 1<<16)
	for i := range devices {
		devices[i] = cluster.NewDevice(socialgraph.UserID(i + 1))
		if err := devices[i].Connect(); err != nil {
			log.Fatalf("viewer %d connect: %v", i, err)
		}
		st, err := devices[i].Subscribe(apps.AppLiveComments,
			fmt.Sprintf("liveVideoComments(videoID: %d)", *videoID), nil)
		if err != nil {
			log.Fatalf("viewer %d subscribe: %v", i, err)
		}
		streams[i] = st
		go func(i int) {
			for delta, ok := st.Next(); ok; delta, ok = st.Next() {
				if delta.Type == burst.DeltaPayload {
					received <- i
				}
			}
		}(i)
		defer devices[i].Close()
	}
	// Wait until every viewer's BRASS host has registered with Pylon.
	if !cluster.WaitForStreams(apps.LVCTopic(*videoID), streams, 5*time.Second) {
		log.Fatal("a viewer's BRASS host never subscribed to the video")
	}
	// The demo runs on the wall clock, reached through the same Scheduler
	// interface every component takes (rule no-direct-time).
	clock := sim.RealClock{}

	// Commenters post through the WAS.
	rng := rand.New(rand.NewSource(*seed))
	start := clock.Now()
	for i := 0; i < *comments; i++ {
		author := socialgraph.UserID(*viewers + 1 + rng.Intn(150))
		commenter := cluster.NewDevice(author)
		if _, err := commenter.Mutate(fmt.Sprintf(
			`postComment(videoID: %d, text: "comment number %d from user %d")`,
			*videoID, i, author)); err != nil {
			fmt.Fprintf(os.Stderr, "post %d: %v\n", i, err)
		}
		commenter.Close()
		sim.Sleep(clock, 2*time.Millisecond)
	}
	sim.Sleep(clock, *duration)

	total := len(received)
	cluster.Quiesce()
	fmt.Printf("\nposted %d comments in %v; %d viewer deliveries\n",
		*comments, clock.Now().Sub(start).Round(time.Millisecond), total)
	fanout := cluster.Pylon.FanoutSize
	fmt.Printf("pylon: %d publishes, %d host deliveries, fanout mean %.1f\n",
		cluster.Pylon.Publishes.Value(), cluster.Pylon.Deliveries.Value(),
		float64(fanout.Sum())/float64(max(fanout.Count(), 1)))
	fmt.Printf("brass: %d decisions, %d deliveries, %d filtered (filter rate %.0f%%)\n",
		cluster.TotalDecisions(), cluster.TotalDeliveries(), totalFiltered(cluster),
		filterRate(cluster)*100)
	fmt.Printf("tao:   %d reads (%d point, %d range), %d writes, %d shard accesses\n",
		cluster.TAO.Stats().Reads(), cluster.TAO.Stats().PointQueries.Value(),
		cluster.TAO.Stats().RangeQueries.Value(), cluster.TAO.Stats().Writes.Value(),
		cluster.TAO.Stats().ShardAccesses.Value())
	fmt.Printf("was:   %d mutations, %d payload fetches, %d privacy checks (%d denied)\n",
		cluster.WAS.Mutations.Value(), cluster.WAS.PayloadFetches.Value(),
		cluster.WAS.PrivacyChecks.Value(), cluster.WAS.PrivacyDenied.Value())
}

func totalFiltered(c *core.Cluster) int64 {
	var t int64
	for _, h := range c.Hosts {
		t += h.Filtered.Value()
	}
	return t
}

func filterRate(c *core.Cluster) float64 {
	d := c.TotalDecisions()
	if d == 0 {
		return 0
	}
	return 1 - float64(c.TotalDeliveries())/float64(d)
}
