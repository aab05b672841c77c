// Messenger: reliable, in-order message delivery built on Bladerunner's
// best-effort substrate (paper §4). Mailbox sequence numbers let the BRASS
// detect and repair gaps; a cursor persisted in the stream header via
// BURST rewrites let a reconnecting device catch up on everything it missed
// — even though the device never tracked sequence numbers itself.
//
// Run with:
//
//	go run ./examples/messenger
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
	"bladerunner/internal/durlog"
	"bladerunner/internal/sim"
)

func main() {
	cluster, err := core.NewCluster(core.DefaultConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Alice and Bob share a thread.
	alice := cluster.NewDevice(1)
	defer alice.Close()
	out, err := alice.Mutate(`createThread(members: "1,2")`)
	if err != nil {
		log.Fatal(err)
	}
	var threadID uint64
	if err := json.Unmarshal(out, &threadID); err != nil {
		log.Fatalf("createThread replied %q: %v", out, err)
	}
	fmt.Printf("created thread %d between alice(1) and bob(2)\n", threadID)

	// Bob's phone connects and subscribes to his mailbox.
	bob := cluster.NewDevice(2)
	if err := bob.Connect(); err != nil {
		log.Fatal(err)
	}
	st, err := bob.Subscribe(apps.AppMessenger, "messenger", nil)
	if err != nil {
		log.Fatal(err)
	}
	clock := sim.RealClock{}
	cluster.Pylon.WaitForSubscriber(clock, apps.MailboxTopic(2), 10*time.Second)

	send := func(text string) {
		if _, err := alice.Mutate(fmt.Sprintf(
			`sendMessage(threadID: %d, text: "%s")`, threadID, text)); err != nil {
			log.Fatal(err)
		}
	}
	// recv reads st up to its next message: Next hands out payloads and
	// flow statuses in the order they came.
	recv := func(st *device.Stream) (m apps.MessagePayload) {
		defer clock.After(10*time.Second, func() { log.Fatal("timed out waiting for message") })()
		for delta, ok := st.Next(); ok; delta, ok = st.Next() {
			if delta.Type == burst.DeltaPayload {
				_ = json.Unmarshal(delta.Payload, &m)
				return m
			}
		}
		log.Fatal("the stream ended")
		return m
	}

	// Live delivery while connected.
	send("hey bob")
	send("lunch?")
	for i := 0; i < 2; i++ {
		m := recv(st)
		fmt.Printf("bob's phone: seq=%d %q\n", m.Seq, m.Text)
	}

	// The stream header now carries bob's cursor, written by the BRASS
	// through a BURST rewrite — bob's app never tracked it.
	seq := func() uint64 { c, _ := durlog.Parse(st.HeaderField(burst.HdrCursor)); return c.Seq }
	for seq() != 2 {
		sim.Sleep(clock, 5*time.Millisecond)
	}
	saved := st.Request()
	fmt.Printf("cursor in stream header: %s (maintained by rewrites)\n",
		saved.Header[burst.HdrCursor])

	// Bob's phone goes into a tunnel.
	bob.Close()
	fmt.Println("\nbob disconnects...")
	send("are you there?")
	send("guess you're in the subway")
	fmt.Println("alice sent 2 messages while bob was offline")

	// Bob reconnects. The device resubscribes with the stored (rewritten)
	// request; the BRASS sees the cursor and replays the mailbox.
	bob2 := cluster.NewDevice(2)
	defer bob2.Close()
	if err := bob2.Connect(); err != nil {
		log.Fatal(err)
	}
	st2, err := bob2.Subscribe(apps.AppMessenger, "messenger",
		burst.Header{burst.HdrCursor: saved.Header[burst.HdrCursor]})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bob reconnects with the stored cursor...")
	for i := 0; i < 2; i++ {
		m := recv(st2)
		fmt.Printf("catch-up delivery: seq=%d %q\n", m.Seq, m.Text)
	}
	fmt.Println("\nno message lost, none duplicated — reliability built by the app on a best-effort substrate")
}
