// Package sim provides the deterministic discrete-event simulation kernel
// used to drive Bladerunner experiments over simulated 24-hour horizons,
// along with clock abstractions shared by the live (wall-clock) system.
//
// Components in this repository never call time.Now directly; they accept a
// Clock so the same logic runs both against real time (examples, protocol
// tests) and against the event-driven virtual time used by the experiment
// harness in internal/experiments.
package sim

import (
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the system.
type Clock interface {
	// Now returns the current time. For the virtual clock this is the
	// simulation time, which only advances when events are processed.
	Now() time.Time
}

// Scheduler extends Clock with the ability to run a function at a later
// time. The live implementation uses time.AfterFunc; the virtual
// implementation enqueues a simulation event.
type Scheduler interface {
	Clock
	// After schedules fn to run d after the current time. It returns a
	// cancel function; cancelling after the callback has started is a
	// no-op. d <= 0 schedules fn for immediate execution (still
	// asynchronously with respect to the caller).
	After(d time.Duration, fn func()) (cancel func())
}

// RealClock is a Scheduler backed by the wall clock.
type RealClock struct{}

// Now returns the wall-clock time.
func (RealClock) Now() time.Time { return time.Now() }

// After schedules fn on the wall clock via time.AfterFunc.
func (RealClock) After(d time.Duration, fn func()) func() {
	if d < 0 {
		d = 0
	}
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

var _ Scheduler = RealClock{}

// ManualClock is a Clock whose time is advanced explicitly by tests.
// It is safe for concurrent use.
type ManualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewManualClock returns a ManualClock starting at start.
//
//brlint:allow(test-only-export) the hand-stepped clock fixture tests drive time with
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now returns the current manual time.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d.
//
//brlint:allow(test-only-export) the hand-stepped clock fixture tests drive time with
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// Set sets the clock to t. Setting time backwards is allowed (tests only).
//
//brlint:allow(test-only-export) the hand-stepped clock fixture tests drive time with
func (c *ManualClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
}

// Sleep blocks the calling goroutine until d has elapsed on s. It is the
// Clock-respecting replacement for time.Sleep: under RealClock it sleeps on
// the wall clock, under a virtual Scheduler it parks until the event engine
// reaches the wake-up time. The caller must not be the goroutine driving
// the virtual engine, or the wake-up event can never fire.
func Sleep(s Scheduler, d time.Duration) {
	<-Timeout(s, d)
}

// Timeout returns a channel that is closed once d has elapsed on s — the
// Clock-respecting replacement for time.After in selects.
func Timeout(s Scheduler, d time.Duration) <-chan struct{} {
	done := make(chan struct{})
	s.After(d, func() { close(done) })
	return done
}
