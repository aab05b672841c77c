package pylon

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"bladerunner/internal/kvstore"
)

// The one representation-specific helper below was a sorted walk of the
// map-backed SetView when the digests were recorded (its rows sorted as
// strings, which for these member names is member order);
// replicaReadsDigest and the fold helpers are as they were then.

// viewRows is a view as "member version present" rows sorted by member.
func viewRows(v kvstore.SetView) []string {
	rows := make([]string, 0, len(v))
	for _, r := range v {
		rows = append(rows, fmt.Sprintf("%s %d %t", r.Member, r.Version, r.Present))
	}
	return rows
}

// errHook is what a replica's op hook answers while the test fails that op.
var errHook = errors.New("hook: injected failure")

// logHost records, in one log shared by every host, which host each
// delivery reached.
type logHost struct {
	id  string
	log *[]string
}

func (h logHost) ID() string       { return h.id }
func (h logHost) Deliver(ev Event) { *h.log = append(*h.log, h.id) }

// replicaReadsDigest plays a seeded stream of subscription writes, replica
// outages, op-hook failures and quorum patches against a fresh 5-node,
// 3-replica store, and folds everything a reader sees after each step —
// every ReadAll response in replica order, their Merge, ReadOne,
// QuorumAvailable, Subscribers and the hosts two publishes reach, in
// delivery order (one through the subscriber cache, one without it) — into
// one FNV-64a digest.
func replicaReadsDigest(seed int64, steps int) uint64 {
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	regions := []string{"us", "eu", "ap"}
	nodes := make([]*kvstore.Node, 5)
	failing := make([]string, len(nodes)) // the op each node's hook fails, or ""
	down := make(map[*kvstore.Node]bool, len(nodes))
	for i := range nodes {
		nodes[i] = kvstore.NewNode(fmt.Sprintf("kv%d", i), regions[i%3])
		nodes[i].SetOpHook(func(op, key string) error {
			if failing[i] == op {
				return errHook
			}
			if down[nodes[i]] {
				return kvstore.ErrNodeDown
			}
			return nil
		})
	}
	kv := kvstore.MustNewCluster(nodes, 3)
	cached := MustNew(DefaultConfig(), kv)
	uncached := DefaultConfig()
	uncached.SubCacheSize = 0
	plain := MustNew(uncached, kv)
	var log []string
	hosts := []string{"h0", "h1", "h2", "h3"}
	for _, id := range hosts {
		cached.RegisterHost(logHost{id: id, log: &log})
		plain.RegisterHost(logHost{id: id, log: &log})
	}
	topics := []Topic{"/t/a", "/t/b", "/t/c"}
	for step := 0; step < steps; step++ {
		topic := topics[rng.Intn(len(topics))]
		key, host := string(topic), hosts[rng.Intn(len(hosts))]
		switch op := rng.Intn(12); {
		case op < 4:
			foldErr(h, cached.Subscribe(topic, host))
		case op < 6:
			foldErr(h, cached.Unsubscribe(topic, host))
		case op < 7:
			// A member no host answers to: readers list it, publishes skip it.
			var acked int
			var err error
			if rng.Intn(2) == 0 {
				acked, err = kv.SetAdd(key, "ghost")
			} else {
				acked, err = kv.SetRemove(key, "ghost")
			}
			fmt.Fprintf(h, "ghost %d;", acked)
			foldErr(h, err)
		case op < 9:
			n := nodes[rng.Intn(len(nodes))]
			down[n] = !down[n]
		case op < 11:
			failing[rng.Intn(len(nodes))] = []string{"", "apply", "view"}[rng.Intn(3)]
		default:
			var views []kvstore.SetView
			for _, r := range kv.ReadAll(key) {
				if r.View != nil {
					views = append(views, r.View)
				}
			}
			fmt.Fprintf(h, "patched %d;", kv.Patch(key, kvstore.Merge(views...)))
		}
		var views []kvstore.SetView
		var one *kvstore.Node // ReadOne's answer: the first replica that answers
		var v kvstore.SetView
		for _, r := range kv.ReadAll(key) {
			if one == nil && r.Err == nil {
				one, v = r.Node, r.View
			}
			fmt.Fprintf(h, "resp %s:", r.Node.ID)
			foldErr(h, r.Err)
			foldView(h, r.View)
			if r.View != nil {
				views = append(views, r.View)
			}
		}
		fmt.Fprint(h, "merged:")
		foldView(h, kvstore.Merge(views...))
		// ReadOne and QuorumAvailable as the store had them when the
		// digests were recorded: the first replica that answers (its
		// ReadAll view is whole), and whether a majority of the replicas
		// is up.
		replicas, up := kv.ReplicasFor(key), 0
		for _, n := range replicas {
			if !down[n] {
				up++
			}
		}
		var err error
		if one == nil {
			err = kvstore.ErrNodeDown
		}
		foldErr(h, err)
		if one != nil {
			fmt.Fprintf(h, "one %s:", one.ID)
		}
		foldView(h, v)
		fmt.Fprintf(h, "quorum %t; subscribers %q;", up*2 > len(replicas), cached.Subscribers(topic))
		for _, s := range []*Service{cached, plain} {
			log = log[:0]
			sent, err := s.Publish(Event{Topic: topic})
			foldErr(h, err)
			fmt.Fprintf(h, "publish %d %q %d %d;", sent, log, s.PatchForwards.Value(), s.Patches.Value())
		}
	}
	return h.Sum64()
}

func foldErr(h hash.Hash64, err error) {
	fmt.Fprintf(h, "err %t %t %t %t;", err == nil, errors.Is(err, kvstore.ErrNodeDown),
		errors.Is(err, kvstore.ErrNoQuorum), errors.Is(err, errHook))
}

func foldView(h hash.Hash64, v kvstore.SetView) {
	fmt.Fprintf(h, "view %t %q %q;", v == nil, viewRows(v), v.Members())
}

// TestReplicaReadsAreUnchanged pins what a subscriber read answers, not how
// a view holds it: the digests were recorded from the map-backed SetView
// (commit 1560d78), before a view became one slice sorted by member. A
// changed digest is a changed read surface, never a test to re-record.
func TestReplicaReadsAreUnchanged(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want uint64
	}{
		{1, 0x99b2067a8d6fea19},
		{2, 0x419e830783b0cdaf},
		{3, 0x8473d406b731dd80},
		{4, 0x9d8199f98d58622a},
	} {
		if got := replicaReadsDigest(c.seed, 500); got != c.want {
			t.Errorf("seed %d: digest %#x, want %#x", c.seed, got, c.want)
		}
	}
}
