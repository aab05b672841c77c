package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// Action is one scheduled fault-plane operation.
type Action struct {
	// At is the offset from Plan.Start at which the action fires.
	At time.Duration
	// Desc names the action in Schedule renderings and logs.
	Desc string
	// Do applies the action.
	Do func(*FaultNetwork)
}

// Plan is a scheduled fault timeline: "at T+x, cut pop-0; at T+y, heal".
// Plans are built once and scheduled onto a FaultNetwork's Scheduler, so a
// plan replays identically under the wall clock and the discrete-event
// engine. Seeded RandomPlan construction makes whole chaos runs
// reproducible: same seed ⇒ same schedule (assertable via Schedule).
type Plan struct {
	actions []Action
}

// Add appends an arbitrary action.
func (p *Plan) Add(at time.Duration, desc string, do func(*FaultNetwork)) *Plan {
	p.actions = append(p.actions, Action{At: at, Desc: desc, Do: do})
	return p
}

// CutAt schedules a hard cut of target.
func (p *Plan) CutAt(at time.Duration, target string) *Plan {
	return p.Add(at, fmt.Sprintf("cut %s", target), func(n *FaultNetwork) { n.Cut(target) })
}

// HealAt schedules a heal of target.
func (p *Plan) HealAt(at time.Duration, target string) *Plan {
	return p.Add(at, fmt.Sprintf("heal %s", target), func(n *FaultNetwork) { n.Heal(target) })
}

// DropAt schedules a probabilistic corrupt-free-cut rate on target.
func (p *Plan) DropAt(at time.Duration, target string, prob float64) *Plan {
	return p.Add(at, fmt.Sprintf("drop(%s) p=%.3f", target, prob),
		func(n *FaultNetwork) { n.SetDropProb(target, prob) })
}

// Len returns the number of scheduled actions.
func (p *Plan) Len() int { return len(p.actions) }

// Horizon returns the offset of the last action.
func (p *Plan) Horizon() time.Duration {
	var h time.Duration
	for _, a := range p.actions {
		if a.At > h {
			h = a.At
		}
	}
	return h
}

// sorted returns the actions in firing order (stable on build order for
// equal times, mirroring the sim engine's FIFO tiebreak).
func (p *Plan) sorted() []Action {
	out := append([]Action(nil), p.actions...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Schedule renders the timeline deterministically — chaos tests assert
// that two plans built from the same seed render identically.
func (p *Plan) Schedule() string {
	var b strings.Builder
	for _, a := range p.sorted() {
		fmt.Fprintf(&b, "T+%v %s\n", a.At, a.Desc)
	}
	return b.String()
}

// Start schedules every action onto n's Scheduler relative to now and
// returns a cancel function for the not-yet-fired remainder.
func (p *Plan) Start(n *FaultNetwork) (cancel func()) {
	var (
		mu      sync.Mutex
		cancels []func()
	)
	for _, a := range p.sorted() {
		a := a
		c := n.sched.After(a.At, func() { a.Do(n) })
		cancels = append(cancels, c)
	}
	return func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range cancels {
			c()
		}
		cancels = nil
	}
}

// RandomPlan builds a reproducible chaos timeline: nFaults cut/heal pairs
// over the horizon, each against a seeded-random target, with outage
// lengths drawn from [horizon/20, horizon/4]. The same seed produces the
// identical plan.
func RandomPlan(seed int64, targets []string, horizon time.Duration, nFaults int) *Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{}
	if len(targets) == 0 || nFaults <= 0 || horizon <= 0 {
		return p
	}
	for i := 0; i < nFaults; i++ {
		target := targets[rng.Intn(len(targets))]
		// Leave the last quarter of the horizon fault-free so every
		// stream has room to recover before the run's assertions.
		start := time.Duration(rng.Int63n(int64(horizon * 3 / 4)))
		minOut := horizon / 20
		if minOut <= 0 {
			minOut = 1
		}
		outage := minOut + time.Duration(rng.Int63n(int64(horizon/4)))
		heal := start + outage
		if heal > horizon*3/4 {
			heal = horizon * 3 / 4
		}
		p.CutAt(start, target)
		p.HealAt(heal, target)
	}
	return p
}
