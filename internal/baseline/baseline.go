// Package baseline implements the dissemination architecture Bladerunner
// replaced for LiveVideoComments (§2, Fig 1): client-side polling. The
// switchover experiment runs it against the same workload as a stream to
// reproduce the paper's 10× backend-query reduction and its 80%-empty-poll
// measurement. The other architectures §2 discusses (server-side polling
// agents, pub/sub-triggered polling, a distributed event log, direct
// pub/sub) are argued against in the paper and not modelled here.
package baseline

import (
	"bytes"
	"sync"
	"time"

	"bladerunner/internal/metrics"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/was"
)

// ClientPoller models the client-side polling architecture (Fig 1): the
// device re-issues its GraphQL query every Interval and diffs the response.
// Most polls return nothing new; every poll costs a backend range query.
type ClientPoller struct {
	WAS      *was.Server
	Viewer   socialgraph.UserID
	Query    string
	Interval time.Duration
	Sched    sim.Scheduler
	// OnNewData runs when a poll returns data that differs from the
	// previous response.
	OnNewData func(data []byte)

	mu      sync.Mutex
	last    []byte
	stopped bool
	cancel  func()

	Polls      metrics.Counter
	EmptyPolls metrics.Counter
	BytesDown  metrics.Counter // last-mile bytes (every poll response)
}

// Start begins the poll loop.
func (p *ClientPoller) Start() {
	if p.Sched == nil {
		p.Sched = sim.RealClock{}
	}
	p.schedule()
}

func (p *ClientPoller) schedule() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.cancel = p.Sched.After(p.Interval, func() {
		p.pollOnce()
		p.schedule()
	})
}

// pollOnce issues one poll and diffs the result.
func (p *ClientPoller) pollOnce() {
	data, err := p.WAS.Query(p.Viewer, p.Query)
	p.Polls.Inc()
	if err != nil {
		return
	}
	p.BytesDown.Add(int64(len(data))) // the response crosses the last mile either way
	p.mu.Lock()
	same := bytes.Equal(data, p.last)
	if !same {
		p.last = append(p.last[:0], data...)
	}
	cb := p.OnNewData
	p.mu.Unlock()
	if same {
		p.EmptyPolls.Inc()
		return
	}
	if cb != nil {
		cb(data)
	}
}

// Stop ends the poll loop.
func (p *ClientPoller) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	if p.cancel != nil {
		p.cancel()
	}
}

// EmptyPollRate returns the fraction of polls that found nothing new.
func (p *ClientPoller) EmptyPollRate() float64 {
	total := p.Polls.Value()
	if total == 0 {
		return 0
	}
	return float64(p.EmptyPolls.Value()) / float64(total)
}
