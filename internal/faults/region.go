package faults

import (
	"bladerunner/internal/metrics"
	"bladerunner/internal/region"
)

// RegionFaults injects region-scoped failures: a whole datacenter region
// going dark, an inter-region link partitioning (and healing), and
// brownouts (latency inflation without loss). Each fault is ONE event —
// the topology flips first (so routers and the dial gate refuse the dead
// paths), then every established connection crossing the failure boundary
// is severed atomically via the grouped cut primitives, closing the
// half-cut window a per-target loop would leave.
//
// The import direction is deliberate: faults drives region, never the
// reverse — the region plane stays usable without the fault machinery.
type RegionFaults struct {
	// Net is the fault plane carrying the cluster's dialable targets.
	Net *FaultNetwork
	// Gate severs cross-region connections and refuses cross-region dials.
	Gate *region.Gate
	// Topo is the authoritative up/down + latency state.
	Topo *region.Topology

	// RegionCuts counts CutRegion calls; Partitions counts PartitionLink
	// calls.
	RegionCuts metrics.Counter
	Partitions metrics.Counter
}

// NewRegionFaults wires the region fault plane.
func NewRegionFaults(net *FaultNetwork, gate *region.Gate, topo *region.Topology) *RegionFaults {
	return &RegionFaults{Net: net, Gate: gate, Topo: topo}
}

// CutRegion takes region r entirely down: the topology marks it dead
// (routers stop offering it, the replication plane parks its links), every
// cross-region connection touching it is severed, and every dialable
// target homed in it goes hard down as one atomic group cut.
func (rf *RegionFaults) CutRegion(r string) {
	rf.RegionCuts.Inc()
	rf.Topo.SetRegionDown(r, true)
	rf.Gate.SeverRegion(r)
	if targets := rf.Gate.TargetsIn(r); len(targets) > 0 {
		rf.Net.CutGroup(targets...)
	}
}

// HealRegion brings region r back: targets become dialable again (as one
// group event) and the topology reopens its links, releasing any parked
// replication backlog. Severed streams stay dead — recovery is the
// client's resubscribe, exactly as with host-level Cut/Heal.
func (rf *RegionFaults) HealRegion(r string) {
	if targets := rf.Gate.TargetsIn(r); len(targets) > 0 {
		rf.Net.HealGroup(targets...)
	}
	rf.Topo.SetRegionDown(r, false)
}

// PartitionLink partitions the region pair a↔b in both directions: new
// cross-region dials between them fail, established connections die, and
// event replication parks until HealLink. Both regions stay up — each
// keeps serving its own devices from its own Pylon.
func (rf *RegionFaults) PartitionLink(a, b string) {
	rf.Partitions.Inc()
	rf.Topo.SetLinkDown(a, b, true)
	rf.Topo.SetLinkDown(b, a, true)
	rf.Gate.SeverLink(a, b)
	rf.Gate.SeverLink(b, a)
}

// HealLink heals the a↔b partition in both directions; parked replication
// backlog drains in order, converging the two regions' views.
func (rf *RegionFaults) HealLink(a, b string) {
	rf.Topo.SetLinkDown(a, b, false)
	rf.Topo.SetLinkDown(b, a, false)
}
