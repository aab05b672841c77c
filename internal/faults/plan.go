package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// step is one scheduled cut or heal of a target.
type step struct {
	at     time.Duration // offset from Plan.Start
	target string
	heal   bool
}

// Plan is a scheduled fault timeline: "at T+x, cut pop-0; at T+y, heal".
// Plans are built once and scheduled onto a FaultNetwork's Scheduler, so a
// plan replays identically under the wall clock and the discrete-event
// engine. Seeded RandomPlan construction makes whole chaos runs
// reproducible: same seed ⇒ same schedule (assertable via Schedule).
type Plan struct {
	steps []step
}

// CutAt schedules a hard cut of target.
func (p *Plan) CutAt(at time.Duration, target string) *Plan {
	p.steps = append(p.steps, step{at: at, target: target})
	return p
}

// HealAt schedules a heal of target.
func (p *Plan) HealAt(at time.Duration, target string) *Plan {
	p.steps = append(p.steps, step{at: at, target: target, heal: true})
	return p
}

// Len returns the number of scheduled steps.
//
//brlint:allow(test-only-export) a fault-plan fixture; the chaos tests read the plan they run
func (p *Plan) Len() int { return len(p.steps) }

// Horizon returns the offset of the last step.
//
//brlint:allow(test-only-export) a fault-plan fixture; the chaos tests read the plan they run
func (p *Plan) Horizon() time.Duration {
	var h time.Duration
	for _, st := range p.steps {
		h = max(h, st.at)
	}
	return h
}

// sorted returns the steps in firing order (stable on build order for
// equal times, mirroring the sim engine's FIFO tiebreak).
func (p *Plan) sorted() []step {
	out := append([]step(nil), p.steps...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// Schedule renders the timeline deterministically — chaos tests assert
// that two plans built from the same seed render identically.
//
//brlint:allow(test-only-export) a fault-plan fixture; the chaos tests log the plan they run
func (p *Plan) Schedule() string {
	var b strings.Builder
	for _, st := range p.sorted() {
		verb := "cut"
		if st.heal {
			verb = "heal"
		}
		fmt.Fprintf(&b, "T+%v %s %s\n", st.at, verb, st.target)
	}
	return b.String()
}

// Start schedules every step onto n's Scheduler relative to now and
// returns a cancel function for the not-yet-fired remainder.
func (p *Plan) Start(n *FaultNetwork) (cancel func()) {
	var (
		mu      sync.Mutex
		cancels []func()
	)
	for _, st := range p.sorted() {
		c := n.sched.After(st.at, func() {
			if st.heal {
				n.Heal(st.target)
			} else {
				n.Cut(st.target)
			}
		})
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
//
//brlint:allow(test-only-export) a fault-plan fixture; the chaos tests draw their seeded plans from it
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
