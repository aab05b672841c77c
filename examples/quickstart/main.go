// Quickstart: boot a Bladerunner cluster, subscribe a device to a live
// video through the full edge path (device → POP → reverse proxy → BRASS),
// post a comment from another user, and watch it arrive as a push.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/sim"
)

func main() {
	// 1. Boot a deployment: 2 regions, BRASS hosts, proxies, POPs, TAO,
	//    Pylon, and the WAS with all six applications registered.
	cfg := core.DefaultConfig()
	cfg.Graph.BlockProb = 0 // keep the demo deterministic
	cluster, err := core.NewCluster(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	cluster.Apps.LVC.RateLimit = 100 * time.Millisecond // snappy demo
	cluster.Apps.LVC.MinScore = 0                       // the demo comment must survive ranking

	// 2. A viewer device connects through a POP and subscribes to the
	//    comments of live video 7 with a GraphQL-style subscription.
	viewer := cluster.NewDevice(1)
	defer viewer.Close()
	if err := viewer.Connect(); err != nil {
		log.Fatal(err)
	}
	stream, err := viewer.Subscribe(apps.AppLiveComments, "liveVideoComments(videoID: 7)", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("viewer subscribed to liveVideoComments(videoID: 7)")

	// Wait until the serving BRASS has registered the topic with Pylon.
	// The demo runs on the wall clock through the same sim.Scheduler
	// interface every component takes.
	clock := sim.RealClock{}
	cluster.Pylon.WaitForSubscriber(clock, apps.LVCTopic(7), 10*time.Second)

	// 3. Another user posts a comment via a GraphQL mutation to the WAS.
	//    The WAS writes TAO, scores the comment, and publishes a
	//    metadata-only event to Pylon; the BRASS filters, fetches the
	//    payload (privacy-checked), and pushes it down the stream.
	commenter := cluster.NewDevice(2)
	defer commenter.Close()
	if _, err := commenter.Mutate(`postComment(videoID: 7, text: "what a save!")`); err != nil {
		log.Fatal(err)
	}
	fmt.Println("user 2 posted a comment")

	// 4. The push arrives on the viewer's stream, whose Next hands out
	//    payloads and flow statuses in the order they came.
	stop := clock.After(10*time.Second, func() { log.Fatal("timed out waiting for the push") })
	delta, ok := stream.Next()
	for ok && delta.Type != burst.DeltaPayload {
		delta, ok = stream.Next()
	}
	stop()
	var c apps.CommentPayload // a stream that ended hands out no payload to decode
	if err := json.Unmarshal(delta.Payload, &c); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pushed to viewer: %q (author=%d, score=%.2f)\n", c.Text, c.Author, c.Score)

	// 5. The comment is durable in TAO regardless of push delivery, and
	//    the device could always recover it by polling:
	out, err := viewer.Query("videoComments(videoID: 7, limit: 10)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("poll fallback returns: %s\n", out)
}
