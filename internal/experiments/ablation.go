package experiments

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
)

// This file quantifies the design choices DESIGN.md §6 calls out. Each
// ablation compares Bladerunner's choice against the alternative the paper
// argues against.

// AblationMetadataVsPayload quantifies the third "unique aspect" of §1:
// publishing metadata-only events (BRASS fetches payloads from the WAS on
// demand) vs pushing full payloads through Pylon. The cost of the paper's
// choice is one extra point query per *delivered* update; the benefit is
// that cross-region links carry only metadata, and filtered-out updates
// (80%+) never move payload bytes at all.
func AblationMetadataVsPayload(events int, remoteRegions int, keepRate float64) Result {
	meta := pylon.Event{
		Topic:  "/LVC/12345",
		Ref:    987654321,
		Author: 123456789,
		Meta:   map[string]string{"score": "0.8312", "lang": "2"},
	}
	type fullEvent struct {
		pylon.Event
		Payload []byte `json:"payload"`
	}
	payload := make([]byte, 2048) // a comment payload with user context
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	metaBytes, _ := json.Marshal(meta)
	fullBytes, _ := json.Marshal(fullEvent{Event: meta, Payload: payload})

	crossMeta := int64(events) * int64(len(metaBytes)) * int64(remoteRegions)
	crossFull := int64(events) * int64(len(fullBytes)) * int64(remoteRegions)
	// Extra WAS point queries under metadata-only: one per delivery.
	extraQueries := int64(float64(events) * keepRate)

	r := Result{ID: "ablation-metadata", Title: "Metadata-only publish vs full-payload publish"}
	mb := func(b int64) string { return fmt.Sprintf("%.1fMB", float64(b)/1e6) }
	r.AddRow("cross-region bytes (metadata-only)", "-", mb(crossMeta),
		fmt.Sprintf("%d events x %dB x %d remote regions", events, len(metaBytes), remoteRegions))
	r.AddRow("cross-region bytes (full payload)", "-", mb(crossFull),
		"would more than double cross-region usage already paid by TAO replication")
	r.AddRow("bytes saved", "-", pct(1-float64(crossMeta)/float64(crossFull)), "")
	r.AddRow("extra WAS point queries", "-", fmt.Sprintf("%d", extraQueries),
		fmt.Sprintf("only for the %.0f%% of events actually delivered", keepRate*100))
	return r
}

// AblationSubscriptionDedup quantifies footnote 10: the per-host
// subscription manager registers each topic with Pylon once per host, no
// matter how many colocated streams/instances want it. The ablation runs
// the real Pylon against both policies.
func AblationSubscriptionDedup(streamsPerHost, hosts int) Result {
	build := func() (*pylon.Service, []*countingHost) {
		nodes := []*kvstore.Node{
			kvstore.NewNode("a", "us"), kvstore.NewNode("b", "eu"), kvstore.NewNode("c", "ap"),
		}
		pyl := pylon.MustNew(pylon.DefaultConfig(), kvstore.MustNewCluster(nodes, 3))
		hs := make([]*countingHost, hosts)
		for i := range hs {
			hs[i] = &countingHost{id: fmt.Sprintf("h%d", i)}
			pyl.RegisterHost(hs[i])
		}
		return pyl, hs
	}

	// With dedup: one Pylon subscription per host.
	pylDedup, _ := build()
	for i := 0; i < hosts; i++ {
		_ = pylDedup.Subscribe("/hot", fmt.Sprintf("h%d", i))
	}
	nDedup, _ := pylDedup.Publish(pylon.Event{Topic: "/hot"})

	// Without dedup: one Pylon subscription per stream. Pylon's
	// subscriber sets are keyed by member name, so per-stream members
	// multiply both the KV store size and the fanout work.
	pylRaw, rawHosts := build()
	for i := 0; i < hosts; i++ {
		for s := 0; s < streamsPerHost; s++ {
			member := fmt.Sprintf("h%d-stream%d", i, s)
			pylRaw.RegisterHost(&aliasHost{id: member, to: rawHosts[i]})
			_ = pylRaw.Subscribe("/hot", member)
		}
	}
	nRaw, _ := pylRaw.Publish(pylon.Event{Topic: "/hot"})

	r := Result{ID: "ablation-dedup", Title: "Host-level Pylon subscription dedup (footnote 10)"}
	r.AddRow("Pylon subscribers (deduped)", "-", fmt.Sprintf("%d", len(pylDedup.Subscribers("/hot"))),
		fmt.Sprintf("%d hosts x %d streams", hosts, streamsPerHost))
	r.AddRow("Pylon subscribers (per-stream)", "-", fmt.Sprintf("%d", len(pylRaw.Subscribers("/hot"))), "")
	r.AddRow("fanout work per publish (deduped)", "-", fmt.Sprintf("%d sends", nDedup), "")
	r.AddRow("fanout work per publish (per-stream)", "-", fmt.Sprintf("%d sends", nRaw),
		fmt.Sprintf("%dx more", int64(nRaw)/maxI64(int64(nDedup), 1)))
	return r
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

type countingHost struct {
	id string
	n  int
}

func (h *countingHost) ID() string            { return h.id }
func (h *countingHost) Deliver(_ pylon.Event) { h.n++ }

type aliasHost struct {
	id string
	to *countingHost
}

func (h *aliasHost) ID() string             { return h.id }
func (h *aliasHost) Deliver(ev pylon.Event) { h.to.Deliver(ev) }

// AblationFirstResponder quantifies Pylon's first-responder forwarding
// (§3.1): fan-out begins as soon as the first (local) subscription replica
// answers, vs waiting for a quorum of replicas across regions.
func AblationFirstResponder(samples int) Result {
	// Replica RTTs: local ~2ms, remote regions 60-120ms.
	local := 2 * time.Millisecond
	remote1 := 70 * time.Millisecond
	remote2 := 110 * time.Millisecond

	firstResponder := local // fanout starts on the first reply
	// Quorum (2 of 3): must wait for the second-fastest reply.
	quorum := remote1
	_ = remote2

	r := Result{ID: "ablation-firstresponder", Title: "First-responder fanout vs quorum-wait fanout"}
	r.AddRow("fanout start (first responder)", "-", firstResponder.String(),
		"local replica answers first")
	r.AddRow("fanout start (quorum wait)", "-", quorum.String(),
		"second reply crosses a region")
	r.AddRow("latency saved per publish", "-", (quorum - firstResponder).String(),
		"stragglers handled by patch-forwarding instead")
	r.AddRow("consistency cost", "-", "bounded",
		"missed subscribers receive the event on the late replica's reply (patch-forward)")
	return r
}

// AblationRateLimitOrder quantifies the configuration-interaction anecdote
// in §2: privacy-checking every message is wasteful, but privacy-checking
// after rate-limiting delivers fewer messages than intended when checks
// deny. Per-application BRASS code resolves this (LVC checks at pop time
// and pops again on denial); a generic pipeline must pick one global order.
func AblationRateLimitOrder(events, slots int, denyFrac float64, graph *socialgraph.Graph) Result {
	// Deterministic denial pattern: every k-th message is from a blocked
	// author, where k ≈ 1/denyFrac.
	denyEvery := 0
	if denyFrac > 0 {
		denyEvery = int(1/denyFrac + 0.5)
	}
	isDenied := func(i int) bool { return denyEvery > 0 && i%denyEvery == denyEvery-1 }

	// Order A: privacy check everything, then rate-limit the survivors.
	checksA := events
	survivors := 0
	for i := 0; i < events; i++ {
		if !isDenied(i) {
			survivors++
		}
	}
	deliveredA := minI(slots, survivors)

	// Order B: rate-limit first, privacy-check only the selected.
	checksB := minI(slots, events)
	deliveredB := 0
	for i := 0; i < checksB; i++ {
		if !isDenied(i) {
			deliveredB++
		}
	}

	// Bladerunner (per-app code): pop at the rate limit, check, and on a
	// denial pop the next candidate — full slots, near-minimal checks.
	checksBR, deliveredBR, next := 0, 0, 0
	for s := 0; s < slots; s++ {
		for next < events {
			checksBR++
			denied := isDenied(next)
			next++
			if !denied {
				deliveredBR++
				break
			}
		}
	}

	r := Result{ID: "ablation-ratelimit-order", Title: "Privacy check vs rate limit ordering (§2)"}
	r.AddRow("checks (privacy first)", "-", fmt.Sprintf("%d", checksA), "wasteful: checks filtered-out messages")
	r.AddRow("delivered (privacy first)", "-", fmt.Sprintf("%d", deliveredA), "")
	r.AddRow("checks (rate-limit first)", "-", fmt.Sprintf("%d", checksB), "cheap")
	r.AddRow("delivered (rate-limit first)", "-", fmt.Sprintf("%d", deliveredB),
		"user gets fewer messages than intended")
	r.AddRow("checks (per-app BRASS)", "-", fmt.Sprintf("%d", checksBR),
		"pop-check-repop: checks only candidates")
	r.AddRow("delivered (per-app BRASS)", "-", fmt.Sprintf("%d", deliveredBR),
		"slots filled despite denials")
	return r
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// GenericFilterConfig drives the generic configurable pub/sub filter chain
// the paper's team abandoned (§2): every knob is a config entry consulted
// per message.
type GenericFilterConfig map[string]string

// GenericFilter evaluates a message against a configuration-driven filter
// chain — the "exponential configuration space" approach.
func GenericFilter(cfg GenericFilterConfig, meta map[string]string) bool {
	if v, ok := cfg["min_score"]; ok {
		min, _ := strconv.ParseFloat(v, 64)
		score, _ := strconv.ParseFloat(meta["score"], 64)
		if score < min {
			return false
		}
	}
	if v, ok := cfg["lang_filter"]; ok && v == "on" {
		if want, ok := cfg["viewer_lang"]; ok && meta["lang"] != "" && meta["lang"] != want {
			return false
		}
	}
	if v, ok := cfg["drop_own"]; ok && v == "on" {
		if cfg["viewer"] == meta["author"] {
			return false
		}
	}
	if v, ok := cfg["allow_celebrities"]; ok && v == "off" {
		if meta["celebrity"] == "true" {
			return false
		}
	}
	return true
}

// PerAppFilter is the compiled equivalent: the same policy as straight-line
// application code (what each BRASS application ships).
func PerAppFilter(minScore float64, viewerLang, viewer string, meta map[string]string) bool {
	score, _ := strconv.ParseFloat(meta["score"], 64)
	if score < minScore {
		return false
	}
	if viewerLang != "" && meta["lang"] != "" && meta["lang"] != viewerLang {
		return false
	}
	if viewer == meta["author"] {
		return false
	}
	return true
}
