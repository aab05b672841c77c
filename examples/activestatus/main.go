// ActiveStatus: the online-friends indicator (paper §3.4). One device
// subscription fans out to one Pylon topic per friend; the BRASS aggregates
// presence reports into a per-stream map with a TTL and pushes periodic
// batched diffs, so the device is never flooded.
//
// Run with:
//
//	go run ./examples/activestatus
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/core"
	"bladerunner/internal/device"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Graph.Users = 200
	cfg.Graph.MeanFriends = 12
	cluster, err := core.NewCluster(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Demo-scale timers: presence TTL 600ms (paper: 30s), batch flush
	// every 150ms.
	cluster.Apps.ActiveStatus.TTL = 600 * time.Millisecond
	cluster.Apps.ActiveStatus.BatchInterval = 150 * time.Millisecond

	// Pick a user with a few friends.
	var me socialgraph.UserID
	for id := socialgraph.UserID(1); id <= 200; id++ {
		if len(cluster.Graph.Friends(id)) >= 3 {
			me = id
			break
		}
	}
	friends := cluster.Graph.Friends(me)[:3]
	fmt.Printf("user %d subscribes to activeStatus; first friends: %v\n", me, friends)

	device := cluster.NewDevice(me)
	defer device.Close()
	if err := device.Connect(); err != nil {
		log.Fatal(err)
	}
	st, err := device.Subscribe(apps.AppActiveStatus, "activeStatus", nil)
	if err != nil {
		log.Fatal(err)
	}
	// One device subscribe produced one Pylon topic per friend:
	clock := sim.RealClock{}
	cluster.Pylon.WaitForSubscriber(clock, apps.StatusTopic(friends[0]), 10*time.Second)
	fmt.Printf("one stream -> %d Pylon topics (one per friend)\n",
		len(cluster.Graph.Friends(me)))

	// Two friends come online (their devices report every 30s in prod).
	for _, f := range friends[:2] {
		fd := cluster.NewDevice(f)
		if _, err := fd.Mutate("reportActive"); err != nil {
			log.Fatal(err)
		}
		fd.Close()
	}

	seen := map[uint64]bool{}
	stop := clock.After(5*time.Second, func() { log.Fatal("timed out waiting for online statuses") })
	for len(seen) < 2 {
		p := nextStatus(st)
		fmt.Printf("batched push: friend %d online=%v\n", p.User, p.Online)
		if p.Online {
			seen[p.User] = true
		}
	}
	stop()

	// No further reports: the TTL expires and the BRASS pushes offline
	// transitions in a later batch.
	fmt.Println("friends stop reporting; waiting for TTL expiry...")
	offline := 0
	stop = clock.After(5*time.Second, func() { log.Fatal("timed out waiting for offline transitions") })
	for offline < 2 {
		if p := nextStatus(st); !p.Online {
			fmt.Printf("batched push: friend %d online=%v (TTL expired)\n", p.User, p.Online)
			offline++
		}
	}
	stop()
	fmt.Println("presence managed entirely by the BRASS: the device only renders diffs")
}

// nextStatus reads st up to its next payload, a friend's status.
func nextStatus(st *device.Stream) (p apps.StatusPayload) {
	for delta, ok := st.Next(); ok; delta, ok = st.Next() {
		if delta.Type == burst.DeltaPayload {
			_ = json.Unmarshal(delta.Payload, &p)
			return p
		}
	}
	log.Fatal("the presence stream ended")
	return p
}
