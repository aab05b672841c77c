package experiments

import (
	"fmt"

	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
)

// This file quantifies the design choices DESIGN.md §6 calls out. Each
// ablation runs Bladerunner's choice and the alternative the paper argues
// against on the real components.

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
		fmt.Sprintf("%dx more", nRaw/max(nDedup, 1)))
	return r
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
