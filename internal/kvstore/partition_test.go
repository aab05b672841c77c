package kvstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// Partition/anti-entropy stress: random sequences of adds, removes, and
// replica outages must always converge to the correct membership once all
// replicas are healed and patched — the eventual-consistency property
// Pylon's subscription store depends on (paper §3.1).
func TestPartitionConvergenceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		regions := []string{"us", "eu", "ap"}
		nodes := make([]*Node, 6)
		for i := range nodes {
			nodes[i] = NewNode(fmt.Sprintf("kv%d", i), regions[i%3])
		}
		c := MustNewCluster(nodes, 3)
		key := fmt.Sprintf("topic-%d", trial)
		replicas := c.ReplicasFor(key)
		isDown := map[*Node]bool{}

		// Ground truth: last-writer-wins over every write that reached
		// at least one replica. Failed quorum writes are NOT rolled
		// back (Dynamo-style); their newer version wins the merge, so
		// the converged state reflects the last *applied* write, not
		// the last *acknowledged* one.
		truth := map[Member]bool{}
		for op := 0; op < 60; op++ {
			switch rng.Intn(10) {
			case 0, 1: // flip one replica's availability
				r := replicas[rng.Intn(len(replicas))]
				isDown[r] = !isDown[r]
				if isDown[r] {
					r.SetOpHook(down)
				} else {
					r.SetOpHook(nil)
				}
			default:
				m := Member(fmt.Sprintf("host%d", rng.Intn(5)))
				if rng.Intn(2) == 0 {
					if acked, _ := c.SetAdd(key, m); acked > 0 {
						truth[m] = true
					}
				} else {
					if acked, _ := c.SetRemove(key, m); acked > 0 {
						truth[m] = false
					}
				}
			}
		}
		// Heal everything and run anti-entropy.
		for _, r := range replicas {
			r.SetOpHook(nil)
		}
		views := make([]SetView, 0, len(replicas))
		for _, resp := range c.ReadAll(key) {
			if resp.Err == nil {
				views = append(views, resp.View)
			}
		}
		merged := Merge(views...)
		c.Patch(key, merged)

		// Every replica now agrees with the merged view, and the merged
		// membership equals the quorum-acknowledged ground truth.
		want := map[Member]bool{}
		for m, present := range truth {
			if present {
				want[m] = true
			}
		}
		got := map[Member]bool{}
		for _, m := range merged.Members() {
			got[m] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged=%v want=%v", trial, got, want)
		}
		for m := range want {
			if !got[m] {
				t.Fatalf("trial %d: missing %s", trial, m)
			}
		}
		for _, r := range replicas {
			v, err := r.viewUnless(key, nil)
			if err != nil {
				t.Fatal(err)
			}
			members := v.Members()
			if len(members) != len(want) {
				t.Fatalf("trial %d: replica %s diverged after patch: %v vs %v",
					trial, r.ID, members, want)
			}
		}
	}
}
