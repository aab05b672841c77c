package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// down is the fault hook of a node that is down: every op fails.
func down(op, key string) error { return ErrNodeDown }

func newTestCluster(t *testing.T, nodes, replicas int) *Cluster {
	t.Helper()
	regions := []string{"us-east", "eu-west", "ap-south"}
	ns := make([]*Node, nodes)
	for i := range ns {
		ns[i] = NewNode(fmt.Sprintf("kv%d", i), regions[i%len(regions)])
	}
	return MustNewCluster(ns, replicas)
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil, 1); err == nil {
		t.Error("empty cluster accepted")
	}
	n := NewNode("a", "r")
	if _, err := NewCluster([]*Node{n}, 2); err == nil {
		t.Error("replicas > nodes accepted")
	}
	if _, err := NewCluster([]*Node{n}, 0); err == nil {
		t.Error("replicas=0 accepted")
	}
	if _, err := NewCluster([]*Node{n, NewNode("a", "r2")}, 1); err == nil {
		t.Error("duplicate node id accepted")
	}
}

func TestReplicasForDeterministicAndDiverse(t *testing.T) {
	c := newTestCluster(t, 9, 3)
	r1 := c.ReplicasFor("/LVC/42")
	r2 := c.ReplicasFor("/LVC/42")
	if len(r1) != 3 {
		t.Fatalf("replica count = %d", len(r1))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("replica choice not deterministic")
		}
	}
	regions := map[string]bool{}
	for _, n := range r1 {
		regions[n.Region] = true
	}
	if len(regions) != 3 {
		t.Errorf("replicas span %d regions, want 3 (region diversity)", len(regions))
	}
}

func TestReplicasForSpreadsKeys(t *testing.T) {
	c := newTestCluster(t, 9, 3)
	primary := map[string]int{}
	for i := 0; i < 300; i++ {
		r := c.ReplicasFor(fmt.Sprintf("/topic/%d", i))
		primary[r[0].ID]++
	}
	if len(primary) < 5 {
		t.Errorf("only %d distinct primaries across 300 keys", len(primary))
	}
}

// referenceReplicas is ReplicasFor's body as it was before it stopped
// allocating — sort.Slice over a scratch slice, a map of used regions — kept
// as the oracle for the order pickReplicas must reproduce.
func referenceReplicas(all []scored, replicas int) []*Node {
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].n.ID < all[j].n.ID
	})
	out := make([]*Node, 0, replicas)
	used := make(map[string]bool)
	for _, sc := range all {
		if len(out) == replicas {
			return out
		}
		if !used[sc.n.Region] {
			out = append(out, sc.n)
			used[sc.n.Region] = true
		}
	}
	for _, sc := range all {
		if len(out) == replicas {
			break
		}
		dup := false
		for _, o := range out {
			if o == sc.n {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, sc.n)
		}
	}
	return out
}

func TestReplicasForMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 2000; i++ {
		regions, nodes := 1+rng.Intn(3), 1+rng.Intn(9)
		if i%50 == 0 {
			nodes += 16 // past the scores ReplicasFor keeps on its stack
		}
		replicas := 1 + rng.Intn(min(3, nodes))
		ns := make([]*Node, nodes)
		for j := range ns {
			ns[j] = NewNode(fmt.Sprintf("kv%d", j), fmt.Sprintf("region-%d", j%regions))
		}
		rng.Shuffle(nodes, func(a, b int) { ns[a], ns[b] = ns[b], ns[a] })
		c := MustNewCluster(ns, replicas)
		key := fmt.Sprintf("/topic/%d", rng.Int63())
		mask := ^uint64(0)
		if i%4 == 0 {
			mask = 1 // two scores in all: ties everywhere, broken by node id
		}
		score := func() []scored {
			all := make([]scored, nodes)
			for j, n := range ns {
				all[j] = scored{n, rendezvousScore(key, n.ID) & mask}
			}
			return all
		}
		want := referenceReplicas(score(), replicas)
		if got := pickReplicas(nil, score(), replicas); !slices.Equal(got, want) {
			t.Fatalf("case %d (%d regions, %d nodes, %d replicas, mask %#x): picked %v, reference %v",
				i, regions, nodes, replicas, mask, ids(got), ids(want))
		}
		if mask != 1 {
			if got := c.ReplicasFor(key); !slices.Equal(got, want) {
				t.Fatalf("case %d: ReplicasFor = %v, reference %v", i, ids(got), ids(want))
			}
		}
	}
}

func ids(ns []*Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

func TestReplicasForAllocatesOnlyItsResult(t *testing.T) {
	c := newTestCluster(t, 9, 3)
	if got := testing.AllocsPerRun(1000, func() { _ = c.ReplicasFor("/LVC/42") }); got > 1 {
		t.Errorf("ReplicasFor: %v allocs/op, want <= 1 (the result slice)", got)
	}
}

func TestReplicasMoreThanRegions(t *testing.T) {
	// 5 replicas but only 3 regions: second pass must fill.
	c := newTestCluster(t, 9, 5)
	r := c.ReplicasFor("k")
	if len(r) != 5 {
		t.Fatalf("got %d replicas", len(r))
	}
	seen := map[string]bool{}
	for _, n := range r {
		if seen[n.ID] {
			t.Fatal("duplicate node in replica set")
		}
		seen[n.ID] = true
	}
}

func TestSetAddRemoveMembers(t *testing.T) {
	c := newTestCluster(t, 6, 3)
	if _, err := c.SetAdd("topic", "hostA"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetAdd("topic", "hostB"); err != nil {
		t.Fatal(err)
	}
	got := readAllMerge(c, "topic").Members()
	if len(got) != 2 || got[0] != "hostA" || got[1] != "hostB" {
		t.Errorf("members = %v", got)
	}
	if _, err := c.SetRemove("topic", "hostA"); err != nil {
		t.Fatal(err)
	}
	got = readAllMerge(c, "topic").Members()
	if len(got) != 1 || got[0] != "hostB" {
		t.Errorf("after remove: %v", got)
	}
}

func TestWriteFailsWithoutQuorum(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	replicas := c.ReplicasFor("k")
	replicas[0].SetOpHook(down)
	replicas[1].SetOpHook(down)
	if _, err := c.SetAdd("k", "m"); !errors.Is(err, ErrNoQuorum) {
		t.Errorf("err = %v, want ErrNoQuorum", err)
	}
	replicas[1].SetOpHook(nil)
	if _, err := c.SetAdd("k", "m"); err != nil {
		t.Errorf("write with 2/3 up failed: %v", err)
	}
}

func TestStaleReplicaPatchedToConsistency(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	replicas := c.ReplicasFor("k")
	// Take one replica down; write succeeds on the other two.
	replicas[2].SetOpHook(down)
	if _, err := c.SetAdd("k", "m1"); err != nil {
		t.Fatal(err)
	}
	replicas[2].SetOpHook(nil)
	// The recovered replica is stale.
	v2, _ := replicas[2].viewUnless("k", nil)
	if len(v2.Members()) != 0 {
		t.Fatalf("replica 2 should be stale, has %v", v2.Members())
	}
	// ReadAll + Merge + Patch converges it.
	resp := c.ReadAll(nil, "k")
	views := make([]SetView, 0, len(resp))
	for _, r := range resp {
		if r.Err == nil {
			views = append(views, r.View)
		}
	}
	merged := Merge(views...)
	if got := merged.Members(); len(got) != 1 || got[0] != "m1" {
		t.Fatalf("merged = %v", got)
	}
	if patched := c.Patch("k", merged); patched == 0 {
		t.Error("no replica patched")
	}
	v2, _ = replicas[2].viewUnless("k", nil)
	if got := v2.Members(); len(got) != 1 || got[0] != "m1" {
		t.Errorf("replica 2 after patch = %v", got)
	}
	// A second patch is a no-op.
	if patched := c.Patch("k", merged); patched != 0 {
		t.Errorf("second patch touched %d replicas", patched)
	}
}

func TestMergeLWWPrefersNewerVersion(t *testing.T) {
	a := SetView{{Member: "m", Version: 1, Present: true}}
	b := SetView{{Member: "m", Version: 2, Present: false}} // newer tombstone
	merged := Merge(a, b)
	if len(merged.Members()) != 0 {
		t.Errorf("tombstone lost: %v", merged.Members())
	}
	merged = Merge(b, a) // order independence
	if len(merged.Members()) != 0 {
		t.Errorf("merge not order independent: %v", merged.Members())
	}
}

func TestRemoveThenAddWins(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	if _, err := c.SetAdd("k", "m"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetRemove("k", "m"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetAdd("k", "m"); err != nil {
		t.Fatal(err)
	}
	if got := readAllMerge(c, "k").Members(); len(got) != 1 {
		t.Errorf("members = %v, want [m]", got)
	}
}

func TestDownNodeRejectsReadsAndWrites(t *testing.T) {
	n := NewNode("a", "r")
	n.SetOpHook(down)
	if err := n.apply("k", "m", record{Version: 1, Present: true}); !errors.Is(err, ErrNodeDown) {
		t.Errorf("apply err = %v", err)
	}
	if _, err := n.viewUnless("k", nil); !errors.Is(err, ErrNodeDown) {
		t.Errorf("view err = %v", err)
	}
}

// Property: merging any permutation of replica views yields the same
// member set (merge is commutative and idempotent).
func TestMergeCommutativeProperty(t *testing.T) {
	f := func(versions [6]uint8, present [6]bool) bool {
		var a, b SetView
		for i := 0; i < 3; i++ {
			m := Member(fmt.Sprintf("m%d", i))
			a = append(a, VersionedMember{Member: m, Version: uint64(versions[i]), Present: present[i]})
			b = append(b, VersionedMember{Member: m, Version: uint64(versions[i+3]), Present: present[i+3]})
		}
		ab := Merge(a, b).Members()
		ba := Merge(b, a).Members()
		if len(ab) != len(ba) {
			return false
		}
		for i := range ab {
			if ab[i] != ba[i] {
				return false
			}
		}
		// Idempotence.
		again := Merge(Merge(a, b), Merge(a, b)).Members()
		if len(again) != len(ab) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
