// Package kvstore implements the distributed in-memory key-value store
// that Pylon uses to track topic subscriptions (paper §3.1): values are
// sets of members, replicated across nodes chosen by rendezvous hashing on
// the key, with one replica in the local region and the others in distinct
// remote regions.
//
// Writes are CP: they require a majority of the key's replicas to be
// reachable, otherwise they fail. Reads are AP-friendly: callers may read
// any single replica (fast, possibly stale) or gather all replica responses
// and merge. Set membership uses last-writer-wins versioning with
// tombstones so replicas can be patched to eventual consistency — the
// "quorum patch" operation Pylon performs when it notices replicas
// disagreeing.
package kvstore

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrNoQuorum is returned when a write cannot reach a majority of the
// key's replicas.
var ErrNoQuorum = errors.New("kvstore: no quorum of replicas reachable")

// ErrNodeDown is returned when reading from an unreachable node.
var ErrNodeDown = errors.New("kvstore: node down")

// Member is one element of a replicated set (for Pylon: a BRASS host ID).
type Member string

// record tracks one member with LWW metadata. Tombstones (Present=false)
// are retained so removals replicate correctly.
type record struct {
	Version uint64
	Present bool
}

// SetView is a point-in-time, version-annotated view of a replicated set,
// suitable for merging across replicas: one entry per member, tombstones
// included, sorted by member.
type SetView []VersionedMember

// VersionedMember pairs a member's membership with its LWW version.
type VersionedMember struct {
	Member  Member
	Version uint64
	Present bool
}

// Get returns m's entry in the view, tombstone or not, and whether it has
// one.
func (v SetView) Get(m Member) (VersionedMember, bool) {
	i, ok := slices.BinarySearchFunc(v, m, byMember)
	if !ok {
		return VersionedMember{}, false
	}
	return v[i], true
}

func byMember(r VersionedMember, m Member) int { return cmp.Compare(r.Member, m) }

func memberOrder(a, b VersionedMember) int { return cmp.Compare(a.Member, b.Member) }

// Members returns the present members of the view in sorted order.
func (v SetView) Members() []Member {
	out := make([]Member, 0, len(v))
	for _, r := range v {
		if r.Present {
			out = append(out, r.Member)
		}
	}
	return out
}

// Merge combines several replica views into the LWW-maximal view, a new
// one. Version ties (possible only if two writers raced the version
// counter) resolve deterministically in favor of the tombstone, keeping
// Merge commutative.
func Merge(views ...SetView) SetView {
	n := 0
	for _, v := range views {
		n += len(v)
	}
	out := make(SetView, 0, n)
	for _, v := range views {
		out = append(out, v...)
	}
	// newer is a total order on an entry's (version, present), so which of
	// a member's entries the sort puts first does not change the winner.
	slices.SortFunc(out, memberOrder)
	kept := out[:0]
	for _, r := range out {
		if last := len(kept) - 1; last >= 0 && kept[last].Member == r.Member {
			if newer(r.Version, r.Present, kept[last].Version, kept[last].Present) {
				kept[last] = r
			}
			continue
		}
		kept = append(kept, r)
	}
	return kept
}

// newer reports whether (v1,p1) supersedes (v2,p2) under LWW with
// tombstone-wins tie-breaking.
func newer(v1 uint64, p1 bool, v2 uint64, p2 bool) bool {
	if v1 != v2 {
		return v1 > v2
	}
	return !p1 && p2
}

// OpHook is an injectable per-operation fault hook: called with the op name
// ("apply" or "view") and the key before the node executes the operation.
// Returning an error fails the op exactly as if the node were down; a hook
// may also block (sleeping via its own captured scheduler) to model replica
// latency. Hooks run outside the node's lock.
type OpHook func(op, key string) error

// Node is one KV replica server.
type Node struct {
	ID     string
	Region string

	mu   sync.RWMutex
	up   bool
	hook OpHook
	data map[string]map[Member]record
}

// NewNode returns an empty, up node.
func NewNode(id, region string) *Node {
	return &Node{ID: id, Region: region, up: true, data: make(map[string]map[Member]record)}
}

// Up reports whether the node is reachable.
func (n *Node) Up() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.up
}

// SetUp marks the node reachable or unreachable (failure injection).
func (n *Node) SetUp(up bool) {
	n.mu.Lock()
	n.up = up
	n.mu.Unlock()
}

// SetOpHook installs (or, with nil, removes) the node's fault hook.
func (n *Node) SetOpHook(h OpHook) {
	n.mu.Lock()
	n.hook = h
	n.mu.Unlock()
}

// runHook invokes the fault hook, if any, outside the node's lock.
func (n *Node) runHook(op, key string) error {
	n.mu.RLock()
	h := n.hook
	n.mu.RUnlock()
	if h == nil {
		return nil
	}
	return h(op, key)
}

// apply records a membership change if it is newer than the stored record.
func (n *Node) apply(key string, m Member, rec record) error {
	if err := n.runHook("apply", key); err != nil {
		return fmt.Errorf("node %s: %w", n.ID, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.up {
		return fmt.Errorf("node %s: %w", n.ID, ErrNodeDown)
	}
	set, ok := n.data[key]
	if !ok {
		set = make(map[Member]record)
		n.data[key] = set
	}
	if cur, ok := set[m]; !ok || newer(rec.Version, rec.Present, cur.Version, cur.Present) {
		set[m] = rec
	}
	return nil
}

// View returns the node's current view of key.
func (n *Node) View(key string) (SetView, error) {
	return n.viewUnless(key, nil)
}

// viewUnless is View, except that a node whose set at key already equals a
// non-nil same answers nil without copying it: Patch asks every replica on
// every slow-path publish, and nearly always they agree.
func (n *Node) viewUnless(key string, same SetView) (SetView, error) {
	if err := n.runHook("view", key); err != nil {
		return nil, fmt.Errorf("node %s: %w", n.ID, err)
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.up {
		return nil, fmt.Errorf("node %s: %w", n.ID, ErrNodeDown)
	}
	set := n.data[key]
	if same != nil && len(set) == len(same) {
		agree := true
		for m, r := range set {
			if got, ok := same.Get(m); !ok || got.Version != r.Version || got.Present != r.Present {
				agree = false
				break
			}
		}
		if agree {
			return nil, nil
		}
	}
	out := make(SetView, 0, len(set)) // never nil: an empty set is an answer
	for m, r := range set {
		out = append(out, VersionedMember{Member: m, Version: r.Version, Present: r.Present})
	}
	slices.SortFunc(out, memberOrder)
	return out, nil
}

// Keys returns the number of keys stored (diagnostics).
func (n *Node) Keys() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.data)
}

// Cluster is a set of nodes with rendezvous-hashed replica placement.
type Cluster struct {
	nodes    []*Node
	replicas int
	version  atomic.Uint64 // global LWW version source
}

// NewCluster builds a cluster over nodes with the given replication factor.
// replicas must be >= 1 and <= len(nodes).
func NewCluster(nodes []*Node, replicas int) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, errors.New("kvstore: cluster needs at least one node")
	}
	if replicas < 1 || replicas > len(nodes) {
		return nil, fmt.Errorf("kvstore: replicas %d out of range [1,%d]", replicas, len(nodes))
	}
	ids := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if ids[n.ID] {
			return nil, fmt.Errorf("kvstore: duplicate node id %q", n.ID)
		}
		ids[n.ID] = true
	}
	return &Cluster{nodes: nodes, replicas: replicas}, nil
}

// MustNewCluster is NewCluster that panics on error.
func MustNewCluster(nodes []*Node, replicas int) *Cluster {
	c, err := NewCluster(nodes, replicas)
	if err != nil {
		panic(err)
	}
	return c
}

// ReplicasFor returns the key's replica nodes chosen by rendezvous hashing,
// preferring region diversity: after the top-scoring node, subsequent picks
// come from regions not yet represented when possible (paper §3.1: one
// local replica, others in distinct remote regions). The order is
// deterministic for a given key; index 0 is the "primary" (typically the
// fastest responder in the local region).
func (c *Cluster) ReplicasFor(key string) []*Node {
	return c.replicasInto(make([]*Node, 0, c.replicas), key)
}

// stackReplicas is how many replicas the cluster's own reads and writes
// pick into an array on their stack; a larger replication factor spills to
// the heap.
const stackReplicas = 8

// replicasInto appends key's replicas, in ReplicasFor's order, to the empty
// out. Every subscribe, unsubscribe, patch and slow-path publish comes
// through here with an out on its caller's stack, so none of them allocates
// for it; the scores live on this stack.
func (c *Cluster) replicasInto(out []*Node, key string) []*Node {
	var few [16]scored
	all := few[:0]
	if len(c.nodes) > len(few) {
		all = make([]scored, 0, len(c.nodes))
	}
	for _, n := range c.nodes {
		all = append(all, scored{n, rendezvousScore(key, n.ID)})
	}
	return pickReplicas(out, all, c.replicas)
}

// scored is a node beside its rendezvous score for one key.
type scored struct {
	n *Node
	s uint64
}

// pickReplicas orders all by score, highest first (ties by node id), and
// appends replicas of them to the empty out: the best node of each region
// first, then the best of the rest. It reorders all.
func pickReplicas(out []*Node, all []scored, replicas int) []*Node {
	slices.SortFunc(all, func(a, b scored) int {
		if a.s != b.s {
			return cmp.Compare(b.s, a.s)
		}
		return cmp.Compare(a.n.ID, b.n.ID)
	})
	// First pass: best node per unused region.
	for _, sc := range all {
		if len(out) == replicas {
			return out
		}
		if !slices.ContainsFunc(out, func(o *Node) bool { return o.Region == sc.n.Region }) {
			out = append(out, sc.n)
		}
	}
	// Second pass: fill remaining slots regardless of region.
	for _, sc := range all {
		if len(out) == replicas {
			break
		}
		if !slices.Contains(out, sc.n) {
			out = append(out, sc.n)
		}
	}
	return out
}

// rendezvousScore is FNV-1a over key+node.
func rendezvousScore(key, node string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	h ^= 0xff
	h *= prime
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= prime
	}
	return h
}

// NextVersion allocates a new LWW version.
func (c *Cluster) NextVersion() uint64 { return c.version.Add(1) }

// SetAdd adds member to the set at key on all reachable replicas. It
// requires a majority of replicas to accept the write (CP), returning
// ErrNoQuorum otherwise. It returns the number of replicas written.
func (c *Cluster) SetAdd(key string, m Member) (int, error) {
	return c.write(key, m, true)
}

// SetRemove removes member from the set at key (tombstone write, CP).
func (c *Cluster) SetRemove(key string, m Member) (int, error) {
	return c.write(key, m, false)
}

func (c *Cluster) write(key string, m Member, present bool) (int, error) {
	var few [stackReplicas]*Node
	replicas := c.replicasInto(few[:0], key)
	rec := record{Version: c.NextVersion(), Present: present}
	acked := 0
	for _, n := range replicas {
		if err := n.apply(key, m, rec); err == nil {
			acked++
		}
	}
	if acked*2 <= len(replicas) {
		return acked, fmt.Errorf("key %q: %d/%d acks: %w", key, acked, len(replicas), ErrNoQuorum)
	}
	return acked, nil
}

// ReadOne returns the first reachable replica's view of key, preferring
// the primary. The view may be stale; callers that need convergence use
// ReadAll + Merge.
func (c *Cluster) ReadOne(key string) (SetView, *Node, error) {
	var few [stackReplicas]*Node
	for _, n := range c.replicasInto(few[:0], key) {
		v, err := n.View(key)
		if err == nil {
			return v, n, nil
		}
	}
	return nil, nil, fmt.Errorf("key %q: all replicas down: %w", key, ErrNodeDown)
}

// ReplicaResponse is one replica's answer in a ReadAll. A replica that holds
// exactly what the first responder returned copies nothing: nil View, nil Err.
type ReplicaResponse struct {
	Node *Node
	View SetView
	Err  error
}

// ReadAll queries every replica of key and returns their individual
// responses in replica order. Pylon uses the first response to start
// fan-out and the rest — those that differ from it — for patch-up.
func (c *Cluster) ReadAll(key string) []ReplicaResponse {
	var few [stackReplicas]*Node
	replicas := c.replicasInto(few[:0], key)
	out := make([]ReplicaResponse, len(replicas))
	var first SetView
	for i, n := range replicas {
		v, err := n.viewUnless(key, first)
		out[i] = ReplicaResponse{Node: n, View: v, Err: err}
		if first == nil {
			first = v
		}
	}
	return out
}

// Patch writes the merged view back to any replica whose view diverges,
// bringing replicas to eventual consistency. It returns the number of
// replicas patched.
func (c *Cluster) Patch(key string, merged SetView) int {
	patched := 0
	if merged == nil {
		merged = SetView{} // nil would ask viewUnless for plain views
	}
	var few [stackReplicas]*Node
	for _, n := range c.replicasInto(few[:0], key) {
		v, err := n.viewUnless(key, merged)
		if err != nil || v == nil {
			continue // unreachable, or already holds the merged view
		}
		for _, r := range merged {
			if cur, ok := v.Get(r.Member); !ok || newer(r.Version, r.Present, cur.Version, cur.Present) {
				_ = n.apply(key, r.Member, record{Version: r.Version, Present: r.Present})
			}
		}
		patched++
	}
	return patched
}

// QuorumAvailable reports whether a majority of key's replicas are up —
// the paper's "quorum breakage" failure condition (Fig 10 discussion).
func (c *Cluster) QuorumAvailable(key string) bool {
	var few [stackReplicas]*Node
	replicas := c.replicasInto(few[:0], key)
	up := 0
	for _, n := range replicas {
		if n.Up() {
			up++
		}
	}
	return up*2 > len(replicas)
}
