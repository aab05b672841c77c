package region

import (
	"fmt"
	"sync"
	"time"

	"bladerunner/internal/metrics"
	"bladerunner/internal/pylon"
	"bladerunner/internal/sim"
)

// replBuffer is the per-link replication queue depth. The paper calls
// cross-region bandwidth "a limited resource"; a full queue sheds rather
// than blocking the publisher (the event is still delivered in its origin
// region — remote regions recover via application-level catch-up).
const replBuffer = 8192

// Plane is the cross-region event replication plane: one Pylon cluster
// per region, a WAS-facing Publish that delivers synchronously in the
// event's origin region, and per-link worker goroutines that replay the
// event into every other region after the link's sampled replication lag.
type Plane struct {
	topo  *Topology
	sched sim.Scheduler

	pylons map[string]*pylon.Service
	links  []*replLink

	closeOnce sync.Once

	// ReplLag observes event age (now − Published) at remote delivery.
	ReplLag *metrics.Histogram[time.Duration]
	// ReplDrops counts events shed because a link's queue was full.
	ReplDrops metrics.Counter
	// ReplDelivered counts events delivered into a remote region.
	ReplDelivered metrics.Counter
}

// replLink carries events from one origin region into one remote region.
type replLink struct {
	plane *Plane
	link  Link
	dst   *pylon.Service
	ch    chan pylon.Event
	done  chan struct{}
	wg    sync.WaitGroup

	// Drops counts events shed on this link (queue full).
	Drops metrics.Counter
}

// NewPlane wires one Pylon service per region into a replication plane.
// pylons must have an entry for every region in topo.
func NewPlane(topo *Topology, sched sim.Scheduler, pylons map[string]*pylon.Service) (*Plane, error) {
	if sched == nil {
		sched = sim.RealClock{}
	}
	for _, r := range topo.Regions() {
		if pylons[r] == nil {
			return nil, fmt.Errorf("region: no pylon for region %q", r)
		}
	}
	p := &Plane{
		topo:    topo,
		sched:   sched,
		pylons:  pylons,
		ReplLag: metrics.NewHistogram[time.Duration](),
	}
	// One directed link per ordered region pair: every region's mutations
	// replicate to every other region.
	for _, src := range topo.Regions() {
		for _, dst := range topo.Regions() {
			if src == dst {
				continue
			}
			l := &replLink{
				plane: p,
				link:  Link{src, dst},
				dst:   pylons[dst],
				ch:    make(chan pylon.Event, replBuffer),
				done:  make(chan struct{}),
			}
			l.wg.Add(1)
			go l.run()
			p.links = append(p.links, l)
		}
	}
	return p, nil
}

// Pylon returns the region-local Pylon service for r (nil if unknown).
func (p *Plane) Pylon(r string) *pylon.Service { return p.pylons[r] }

// Topology returns the plane's topology.
func (p *Plane) Topology() *Topology { return p.topo }

// Publish implements was.Publisher: the event is delivered synchronously
// in its origin region's Pylon (empty Origin means the primary region) and
// enqueued for asynchronous replication to every other region. The return
// value is the origin-region fan-out — remote fan-outs happen after the
// replication lag, off this goroutine.
//
//brlint:hotpath origin delivery plus per-link enqueue; gated at 0 allocs/op
func (p *Plane) Publish(ev pylon.Event) (int, error) {
	origin := ev.Origin
	if origin == "" {
		origin = p.topo.Primary()
		ev.Origin = origin
	}
	if ev.Published.IsZero() {
		ev.Published = p.sched.Now()
	}
	home := p.pylons[origin]
	if home == nil {
		return 0, fmt.Errorf("region: publish from unknown region %q", origin)
	}
	n, err := home.Publish(ev)
	if err != nil {
		return n, err
	}
	for _, l := range p.links {
		if l.link.Src != origin {
			continue
		}
		select {
		case l.ch <- ev:
		default:
			l.Drops.Inc()
			p.ReplDrops.Inc()
		}
	}
	return n, err
}

// Close stops every replication worker and waits for them to exit. Safe
// to call with links partitioned or regions down — workers parked waiting
// for a heal observe done and exit, so a failed chaos run cannot leak
// goroutines.
func (p *Plane) Close() {
	p.closeOnce.Do(func() {
		for _, l := range p.links {
			close(l.done)
		}
	})
	for _, l := range p.links {
		l.wg.Wait()
	}
}

// run drains the link's queue: each event is held until its replication
// deadline (Published + sampled lag), then delivered into the remote
// region's Pylon — once the link is up. A partitioned link parks the
// worker on the topology's change broadcast; heal releases the backlog in
// order, which is what gives remote regions a gap-free converged view
// after partition-heal.
func (l *replLink) run() {
	defer l.wg.Done()
	topo := l.plane.topo
	for {
		select {
		case <-l.done:
			return
		case ev := <-l.ch:
			lag := topo.SampleReplLag(l.link.Src, l.link.Dst)
			deadline := ev.Published.Add(lag)
			for {
				now := l.plane.sched.Now()
				if !now.Before(deadline) {
					break
				}
				select {
				case <-l.done:
					return
				case <-sim.Timeout(l.plane.sched, deadline.Sub(now)):
				}
			}
			// Hold delivery across a partition; resume on heal.
			for !topo.LinkUp(l.link.Src, l.link.Dst) {
				changed := topo.Changed()
				if topo.LinkUp(l.link.Src, l.link.Dst) {
					break
				}
				select {
				case <-l.done:
					return
				case <-changed:
				}
			}
			if _, err := l.dst.Publish(ev); err == nil {
				l.plane.ReplDelivered.Inc()
				l.plane.ReplLag.Observe(l.plane.sched.Now().Sub(ev.Published))
			}
		}
	}
}

// QueueDepths reports the current per-link queue depth, keyed by link —
// observability for partition experiments (how much backlog a heal must
// drain).
func (p *Plane) QueueDepths() map[Link]int {
	out := make(map[Link]int, len(p.links))
	for _, l := range p.links {
		out[l.link] = len(l.ch)
	}
	return out
}

var _ interface {
	Publish(ev pylon.Event) (int, error)
} = (*Plane)(nil)

// FlushWait polls until every link queue is empty or timeout elapses,
// returning whether the queues drained. Test helper for "replication has
// converged" assertions.
func (p *Plane) FlushWait(timeout time.Duration) bool {
	deadline := p.sched.Now().Add(timeout)
	for {
		drained := true
		for _, l := range p.links {
			if len(l.ch) != 0 {
				drained = false
				break
			}
		}
		if drained {
			return true
		}
		if p.sched.Now().After(deadline) {
			return false
		}
		sim.Sleep(p.sched, time.Millisecond)
	}
}
