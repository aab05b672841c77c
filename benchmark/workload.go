package main

import (
	"fmt"
	"math/rand"

	"bladerunner/internal/apps"
)

// A script is one workload's complete, seed-determined input: every stream
// the generator will open, every mutation it will issue and, for each
// stream, the exact mutations it must see, in order. The cluster only ever
// receives these generated inputs; the seed never reaches it. Because the
// script is fixed before the run starts, the work done — and so heap growth
// and GC cycle counts — is identical from run to run.
type script struct {
	name string

	wire   bool // every tier boundary is a loopback TCP socket
	durlog bool // core.Config.Durlog on (Messenger journals deliveries)
	users  int  // social-graph size

	inflight     int // K: mutations in flight in the closed loop
	openInflight int // stream opens in flight during churn steps

	setupMutations []mutation // issued one at a time before any stream opens
	setupOpens     []int32    // streams opened one at a time during set-up
	streams        []streamSpec
	ops            []op

	warmup   segment
	segments []segment
}

// mutation is one WAS mutation expression issued as author.
type mutation struct {
	author uint64
	expr   string
	want   string // expected JSON result ("" = unchecked)
}

// op is one measured mutation plus what the reference expects of it.
type op struct {
	mutation
	text   string // payload text every delivery of this op must carry
	fanout int32  // deliveries expected
}

// streamSpec is one request-stream incarnation. A user who scrolls opens a
// new incarnation per focus change; replaces names the one it cancels.
type streamSpec struct {
	pop      int // generator session (= POP) carrying the stream
	user     uint64
	app      string
	sub      string
	replaces int32   // stream index cancelled just before this one opens; -1 = none
	expect   []int32 // ops this stream must receive, in order
}

// cycle is a churn step (possibly empty) followed by a publish step. The
// generator drains every in-flight delivery at the end of a cycle.
type cycle struct {
	opens    []int32
	from, to int32 // ops[from:to]
}

type segment []cycle

func (s segment) ops() int {
	n := 0
	for _, c := range s {
		n += int(c.to - c.from)
	}
	return n
}

// sizing is how much fixed work a run performs: the number of measured
// segments and a divisor applied to each workload's frozen segment size
// (1 for the benchmark, 100 for the unit test, 4 for traced passes).
type sizing struct {
	segments int
	div      int
}

func (z sizing) scale(n int) int {
	n /= z.div
	if n < 1 {
		n = 1
	}
	return n
}

// Frozen segment sizes: chosen once so that a segment takes about two
// seconds on the seed commit on the 2-core reference box. Changing them
// changes every number; they are part of the benchmark's definition.
const (
	hotFanoutSegmentOps  = 560   // × 200 deliveries
	wireFanoutSegmentOps = 160   // × 200 deliveries
	mailboxSegmentOps    = 16000 // × 2 deliveries
	churnSegmentCycles   = 1150  // × (8 opens + 16 publishes)
)

// workloadNames is the order the workloads run in. mailbox_sparse, the one
// with a large heap, comes last: see "Memory" in README.md.
var workloadNames = []string{"hot_fanout", "focus_churn", "wire_fanout", "mailbox_sparse"}

var workloadWhy = map[string]string{
	"hot_fanout":     "one post, 200 viewers: the per-delivery path (brass visibility + payload-cache hit + push, burst flush, two edge relays) does nearly all the work",
	"mailbox_sparse": "1000 mailboxes, fan-out 1: was parse + tao writes + pylon publish over a 1000-topic working set + durlog append + one rewrite per delivery dominate",
	"focus_churn":    "64 scrolling users over 256 posts: the same layers as hot_fanout but for subscription writes (pylon subscribe/unsubscribe, kvstore quorum writes, cache invalidation) beside reads",
	"wire_fanout":    "hot_fanout's inputs with every tier boundary a loopback TCP socket: the difference from hot_fanout is the wire tax",
}

func buildScript(name string, seed int64, z sizing) (*script, error) {
	var sc *script
	switch name {
	case "hot_fanout":
		sc = fanoutScript(seed, z, hotFanoutSegmentOps)
	case "wire_fanout":
		// Exactly hot_fanout's inputs: same seed stream, same streams,
		// same texts; only the transport and the segment size differ.
		sc = fanoutScript(seed, z, wireFanoutSegmentOps)
		sc.wire = true
	case "mailbox_sparse":
		sc = mailboxScript(seed, z)
	case "focus_churn":
		sc = churnScript(seed, z)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	sc.name = name
	return sc, nil
}

const textAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// opText is a unique, seed-dependent comment body: the op index keeps it
// unique, the random tail varies payload length (16..48 bytes).
func opText(rng *rand.Rand, i int) string {
	n := 8 + rng.Intn(33)
	b := make([]byte, n)
	for j := range b {
		b[j] = textAlphabet[rng.Intn(len(textAlphabet))]
	}
	return fmt.Sprintf("m%07d%s", i, b)
}

// distinct draws n distinct values from [lo, hi].
func distinct(rng *rand.Rand, n int, lo, hi uint64) []uint64 {
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		v := lo + uint64(rng.Int63n(int64(hi-lo+1)))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// warmupShare is the size of the warm-up relative to a measured segment.
// It has to touch every stream, topic and cache once, not reach a steady
// heap: a quarter segment visits every mailbox_sparse thread six times.
const warmupShare = 4

// uniformOps is the number of ops a publish-only script needs: a warm-up
// and the measured segments of per ops each.
func uniformOps(segments, per int) int { return max(per/warmupShare, 1) + segments*per }

// uniformSegments cuts the script's ops into the warm-up and the measured
// segments, one publish-only cycle each.
func uniformSegments(sc *script, segments, per int) {
	at := int32(max(per/warmupShare, 1))
	sc.warmup = segment{{from: 0, to: at}}
	for i := 0; i < segments; i++ {
		sc.segments = append(sc.segments, segment{{from: at, to: at + int32(per)}})
		at += int32(per)
	}
}

func commentExpr(post uint64, text string) string {
	return fmt.Sprintf(`postFeedComment(postID: %d, text: %q)`, post, text)
}

func feedSub(post uint64) string {
	return fmt.Sprintf("feedPostComments(postID: %d)", post)
}

// fanoutScript: one post, 200 viewers (100 per POP session), one author who
// is not a viewer, every comment delivered to every viewer.
func fanoutScript(seed int64, z sizing, segmentOps int) *script {
	const viewers = 200
	rng := rand.New(rand.NewSource(seed))
	sc := &script{users: 1000, inflight: 4}
	post := 1 + uint64(rng.Int63n(1_000_000))
	ids := distinct(rng, viewers+1, 1, uint64(sc.users))
	author, ids := ids[0], ids[1:]

	per := z.scale(segmentOps)
	all := make([]int32, uniformOps(z.segments, per))
	for i := range all {
		all[i] = int32(i)
		text := opText(rng, i)
		sc.ops = append(sc.ops, op{
			mutation: mutation{author: author, expr: commentExpr(post, text)},
			text:     text, fanout: viewers,
		})
	}
	for i, u := range ids {
		sc.streams = append(sc.streams, streamSpec{
			pop: i % 2, user: u, app: apps.AppFeedComments, sub: feedSub(post),
			replaces: -1, expect: all,
		})
		sc.setupOpens = append(sc.setupOpens, int32(i))
	}
	uniformSegments(sc, z.segments, per)
	return sc
}

// mailboxScript: 1000 users each holding its Messenger mailbox stream, 500
// two-member threads visited in seeded order. Each sendMessage yields two
// deliveries on two distinct mailbox topics.
func mailboxScript(seed int64, z sizing) *script {
	const users, threads = 1000, 500
	rng := rand.New(rand.NewSource(seed))
	sc := &script{users: users, inflight: 8, durlog: true}

	perm := rng.Perm(users)
	member := make([][2]uint64, threads)
	threadOf := make(map[uint64]int, users)
	for t := range member {
		a, b := uint64(perm[2*t]+1), uint64(perm[2*t+1]+1)
		member[t] = [2]uint64{a, b}
		threadOf[a], threadOf[b] = t, t
		// Messenger numbers threads from 1 in creation order.
		sc.setupMutations = append(sc.setupMutations, mutation{
			author: a,
			expr:   fmt.Sprintf(`createThread(members: "%d,%d")`, a, b),
			want:   fmt.Sprint(t + 1),
		})
	}

	per := z.scale(mailboxSegmentOps)
	total := uniformOps(z.segments, per)
	threadOps := make([][]int32, threads)
	var order []int
	for i := 0; i < total; i++ {
		if len(order) == 0 {
			order = rng.Perm(threads)
		}
		t := order[0]
		order = order[1:]
		text := opText(rng, i)
		sc.ops = append(sc.ops, op{
			mutation: mutation{
				author: member[t][rng.Intn(2)],
				expr:   fmt.Sprintf(`sendMessage(threadID: %d, text: %q)`, t+1, text),
			},
			text: text, fanout: 2,
		})
		threadOps[t] = append(threadOps[t], int32(i))
	}
	for u := uint64(1); u <= users; u++ {
		sc.streams = append(sc.streams, streamSpec{
			pop: int(u) % 2, user: u, app: apps.AppMessenger, sub: "messenger",
			replaces: -1, expect: threadOps[threadOf[u]],
		})
		sc.setupOpens = append(sc.setupOpens, int32(u-1))
	}
	uniformSegments(sc, z.segments, per)
	return sc
}

// churnScript: 256 posts, 64 scrolling users with one stream each. A cycle
// is a churn step — 8 users cancel and subscribe to their next seeded post —
// followed by a publish step — one comment to each of 16 seeded posts that
// currently have a focused user. The focus table below is the reference:
// a comment must reach exactly the user focused on its post when it was
// issued. Users never share a post (a user scrolls to a post nobody is
// on), so every comment owes exactly one delivery whatever the seed: the
// seed picks identities and order, not the amount of work.
func churnScript(seed int64, z sizing) *script {
	const posts, users, churnPerCycle, pubsPerCycle = 256, 64, 8, 16
	rng := rand.New(rand.NewSource(seed))
	sc := &script{users: 1000, inflight: 4, openInflight: churnPerCycle}

	postIDs := distinct(rng, posts, 1, 1_000_000)
	ids := distinct(rng, users+1, 1, uint64(sc.users))
	author, ids := ids[0], ids[1:]

	// A seeded shuffle of the posts: the first `users` are focused (user u
	// on order[u]), the rest are free.
	order := rng.Perm(posts)
	current := make([]int32, users) // user index → live stream index
	open := func(u int, replaces int32) int32 {
		sc.streams = append(sc.streams, streamSpec{
			pop: u % 2, user: ids[u], app: apps.AppFeedComments,
			sub: feedSub(postIDs[order[u]]), replaces: replaces,
		})
		current[u] = int32(len(sc.streams) - 1)
		return current[u]
	}
	for u := 0; u < users; u++ {
		sc.setupOpens = append(sc.setupOpens, open(u, -1))
	}

	turn := rng.Perm(users) // churn order: every user scrolls once per 8 cycles
	next := 0
	buildCycle := func() cycle {
		var c cycle
		for i := 0; i < churnPerCycle; i++ {
			u := turn[next%users]
			next++
			free := users + rng.Intn(posts-users)
			order[u], order[free] = order[free], order[u]
			c.opens = append(c.opens, open(u, current[u]))
		}
		c.from = int32(len(sc.ops))
		for _, u := range rng.Perm(users)[:pubsPerCycle] {
			i := len(sc.ops)
			text := opText(rng, i)
			sc.ops = append(sc.ops, op{
				mutation: mutation{author: author, expr: commentExpr(postIDs[order[u]], text)},
				text:     text, fanout: 1,
			})
			st := &sc.streams[current[u]]
			st.expect = append(st.expect, int32(i))
		}
		c.to = int32(len(sc.ops))
		return c
	}
	buildSegment := func(cycles int) segment {
		var s segment
		for i := 0; i < cycles; i++ {
			s = append(s, buildCycle())
		}
		return s
	}
	per := z.scale(churnSegmentCycles)
	sc.warmup = buildSegment(max(per/warmupShare, 1))
	for i := 0; i < z.segments; i++ {
		sc.segments = append(sc.segments, buildSegment(per))
	}
	return sc
}
