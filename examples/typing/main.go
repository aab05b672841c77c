// TypingIndicator: the dancing ellipses (paper §3.4), plus a demonstration
// of BURST's failure handling — the serving BRASS host is killed mid-
// conversation and the stream is repaired by the proxy to another host,
// with flow-status signals visible at the device (§4 axioms 1 and 2).
//
// Run with:
//
//	go run ./examples/typing
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
	cluster, err := core.NewCluster(core.DefaultConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	const threadID, me, peer = 5, 1, 2

	device := cluster.NewDevice(me)
	defer device.Close()
	if err := device.Connect(); err != nil {
		log.Fatal(err)
	}
	st, err := device.Subscribe(apps.AppTyping,
		fmt.Sprintf("typingIndicator(threadID: %d, peer: %d)", threadID, peer), nil)
	if err != nil {
		log.Fatal(err)
	}
	topic := apps.TypingTopic(threadID, peer)
	clock := sim.RealClock{}
	cluster.Pylon.WaitForSubscriber(clock, topic, 10*time.Second)

	peerDev := cluster.NewDevice(peer)
	defer peerDev.Close()
	typeOn := func() {
		if _, err := peerDev.Mutate(fmt.Sprintf(`setTyping(threadID: %d, on: "true")`, threadID)); err != nil {
			log.Fatal(err)
		}
	}
	// next reads the stream up to its next delta of type typ: Next hands
	// out payloads and flow statuses in the order they came.
	next := func(typ burst.DeltaType, what string) burst.Delta {
		defer clock.After(10*time.Second, func() { log.Fatalf("timed out waiting for %s", what) })()
		delta, ok := st.Next()
		for ok && delta.Type != typ {
			delta, ok = st.Next()
		}
		if !ok {
			log.Fatalf("the stream ended before %s", what)
		}
		return delta
	}
	recv := func(what string) apps.TypingPayload {
		var p apps.TypingPayload
		_ = json.Unmarshal(next(burst.DeltaPayload, what).Payload, &p)
		return p
	}

	typeOn()
	p := recv("typing indicator")
	fmt.Printf("user %d is typing in thread %d: %v\n", p.User, p.Thread, p.Typing)

	// Kill the BRASS host serving this stream.
	servingID := cluster.Pylon.Subscribers(topic)[0]
	fmt.Printf("\nkilling BRASS host %s (software upgrade, say)...\n", servingID)
	cluster.Net.SetDown(servingID, true)
	for _, h := range cluster.Hosts {
		if h.ID() == servingID {
			h.Close()
		}
	}

	// The reverse proxy detects the failure, signals the stream (axiom 1),
	// and repairs it to another BRASS using the stored subscription
	// request (axiom 2). Watch the flow events at the device:
	code := next(burst.DeltaFlowStatus, "the failure's flow status").Flow
	fmt.Printf("device flow-status: %v (failure signalled end-to-end)\n", code)

	// Wait for a replacement host to hold the subscription.
	deadline := clock.Now().Add(10 * time.Second)
	for clock.Now().Before(deadline) {
		subs := cluster.Pylon.Subscribers(topic)
		if len(subs) > 0 && subs[0] != servingID {
			fmt.Printf("stream repaired: now served by %s\n", subs[0])
			break
		}
		sim.Sleep(clock, 10*time.Millisecond)
	}

	// The indicator still works — delivery continued across the failure.
	typeOn()
	p = recv("post-failover indicator")
	fmt.Printf("user %d is typing again: %v — stream survived the BRASS failure\n", p.User, p.Typing)
}
