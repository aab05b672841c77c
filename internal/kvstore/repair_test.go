package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// Quorum-repair tests: ReadAll + Merge + Patch must converge the replicas
// of a key after a minority of them flapped (down, or erroring via op
// hooks) during a write sequence — the straggler-patch behaviour Pylon
// leans on (paper §3.1).

// readAllMerge gathers every reachable replica view of key and merges.
func readAllMerge(c *Cluster, key string) SetView {
	var views []SetView
	for _, r := range c.ReadAll(key) {
		if r.Err == nil {
			views = append(views, r.View)
		}
	}
	return Merge(views...)
}

// assertConverged checks every replica holds exactly the expected members.
func assertConverged(t *testing.T, c *Cluster, key string, want []Member) {
	t.Helper()
	for _, n := range c.ReplicasFor(key) {
		v, err := n.View(key)
		if err != nil {
			t.Fatalf("replica %s: %v", n.ID, err)
		}
		got := v.Members()
		if len(got) != len(want) {
			t.Fatalf("replica %s members = %v, want %v", n.ID, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replica %s members = %v, want %v", n.ID, got, want)
			}
		}
	}
}

// TestAsymmetricDownPatternsRepair makes each replica miss a different
// write — including a removal, so tombstone propagation is covered — and
// verifies one patch round converges all of them.
func TestAsymmetricDownPatternsRepair(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	const key = "k"
	replicas := c.ReplicasFor(key)

	// Write 1: replica 0 misses the add of m1.
	replicas[0].SetUp(false)
	if _, err := c.SetAdd(key, "m1"); err != nil {
		t.Fatal(err)
	}
	replicas[0].SetUp(true)

	// Write 2: replica 1 misses the add of m2.
	replicas[1].SetUp(false)
	if _, err := c.SetAdd(key, "m2"); err != nil {
		t.Fatal(err)
	}
	replicas[1].SetUp(true)

	// Write 3: replica 2 misses the removal of m1 (a tombstone).
	replicas[2].SetUp(false)
	if _, err := c.SetRemove(key, "m1"); err != nil {
		t.Fatal(err)
	}
	replicas[2].SetUp(true)

	// Every replica now has a different partial history.
	merged := readAllMerge(c, key)
	if got := merged.Members(); len(got) != 1 || got[0] != "m2" {
		t.Fatalf("merged members = %v, want [m2]", got)
	}
	if patched := c.Patch(key, merged); patched == 0 {
		t.Fatal("patch touched no replicas")
	}
	assertConverged(t, c, key, []Member{"m2"})
	// The tombstone for m1 must be present everywhere, not just absence.
	for _, n := range replicas {
		v, _ := n.View(key)
		rec, ok := v.Get("m1")
		if !ok || rec.Present {
			t.Errorf("replica %s: m1 tombstone = %+v, %v", n.ID, rec, ok)
		}
	}
	// Convergence is stable: a second patch round is a no-op.
	if patched := c.Patch(key, readAllMerge(c, key)); patched != 0 {
		t.Errorf("second patch round touched %d replicas", patched)
	}
}

// TestFlappingMinorityConvergence runs a seeded write workload while a
// random minority replica flaps around every write, then verifies a single
// ReadAll+Merge+Patch round restores full agreement with the true final
// membership.
func TestFlappingMinorityConvergence(t *testing.T) {
	c := newTestCluster(t, 5, 3)
	const key = "flappy"
	rng := rand.New(rand.NewSource(11))
	replicas := c.ReplicasFor(key)
	model := map[Member]bool{}

	for i := 0; i < 60; i++ {
		// A minority (one of three) may be down for this write.
		var down *Node
		if rng.Intn(2) == 0 {
			down = replicas[rng.Intn(len(replicas))]
			down.SetUp(false)
		}
		m := Member(fmt.Sprintf("m%d", rng.Intn(8)))
		if rng.Intn(3) == 0 {
			if _, err := c.SetRemove(key, m); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			model[m] = false
		} else {
			if _, err := c.SetAdd(key, m); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			model[m] = true
		}
		if down != nil {
			down.SetUp(true)
		}
	}

	var want []Member
	for m, present := range model {
		if present {
			want = append(want, m)
		}
	}
	merged := readAllMerge(c, key)
	got := merged.Members()
	if len(got) != len(want) {
		t.Fatalf("merged = %v, model wants %d members", got, len(want))
	}
	for _, m := range want {
		if r, ok := merged.Get(m); !ok || !r.Present {
			t.Fatalf("merged missing %s", m)
		}
	}
	c.Patch(key, merged)
	assertConverged(t, c, key, got)
}

// TestOpHookInjectsFailures covers the injectable per-op hooks: an erroring
// hook must degrade a replica exactly like SetUp(false) — writes lose its
// ack (but keep quorum), reads fall through to the next replica — and the
// replica patches back to consistency once the hook is removed.
func TestOpHookInjectsFailures(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	const key = "hooked"
	replicas := c.ReplicasFor(key)
	errInjected := errors.New("injected")
	var applies, views int
	replicas[0].SetOpHook(func(op, k string) error {
		if k != key {
			return nil
		}
		switch op {
		case "apply":
			applies++
			return errInjected
		case "view":
			views++
			return errInjected
		}
		return nil
	})

	acked, err := c.SetAdd(key, "m1")
	if err != nil {
		t.Fatalf("write with one erroring replica: %v", err)
	}
	if acked != 2 {
		t.Errorf("acked = %d, want 2", acked)
	}
	if applies == 0 {
		t.Error("apply hook never ran")
	}

	// Reads fall back past the erroring primary.
	v, n, err := c.ReadOne(key)
	if err != nil {
		t.Fatal(err)
	}
	if n == replicas[0] {
		t.Error("ReadOne used the erroring replica")
	}
	if got := v.Members(); len(got) != 1 || got[0] != "m1" {
		t.Errorf("ReadOne view = %v", got)
	}
	if views == 0 {
		t.Error("view hook never ran")
	}

	// Hook removed: the replica rejoins and patches to consistency.
	replicas[0].SetOpHook(nil)
	merged := readAllMerge(c, key)
	if patched := c.Patch(key, merged); patched == 0 {
		t.Error("no replica patched after hook removal")
	}
	assertConverged(t, c, key, []Member{"m1"})
}

// TestOpHookQuorumLoss: erroring hooks on a majority of replicas must
// surface as ErrNoQuorum, same as hard node failures.
func TestOpHookQuorumLoss(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	const key = "dark"
	replicas := c.ReplicasFor(key)
	boom := func(op, k string) error { return errors.New("injected") }
	replicas[0].SetOpHook(boom)
	replicas[1].SetOpHook(boom)
	if _, err := c.SetAdd(key, "m1"); !errors.Is(err, ErrNoQuorum) {
		t.Errorf("write with 2/3 erroring replicas: %v", err)
	}
	replicas[0].SetOpHook(nil)
	replicas[1].SetOpHook(nil)
	if _, err := c.SetAdd(key, "m1"); err != nil {
		t.Errorf("write after hooks removed: %v", err)
	}
}
