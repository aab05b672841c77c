package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Engine is a deterministic discrete-event simulator. Events are executed
// in strict timestamp order; ties are broken by scheduling order, so a run
// with a fixed RNG seed is fully reproducible.
//
// Engine is not safe for concurrent use: all event callbacks run on the
// goroutine that calls Run/RunUntil/Step, and callbacks schedule further
// events on the same engine. This mirrors the single-threaded run-to-
// completion semantics of the JS event loops Facebook uses for BRASS.
type Engine struct {
	now    time.Time
	queue  eventQueue
	seq    uint64
	nextID uint64
	// executed counts events processed since construction.
	executed uint64
}

type event struct {
	at    time.Time
	seq   uint64 // FIFO tiebreak for equal timestamps
	id    uint64
	fn    func()
	index int // heap index, -1 when cancelled/popped
}

// NewEngine returns an engine whose simulation clock starts at start.
func NewEngine(start time.Time) *Engine {
	return &Engine{now: start}
}

// Now returns the current simulation time.
func (e *Engine) Now() time.Time { return e.now }

// After schedules fn to run d after the current simulation time and
// returns a cancel function. Negative d is treated as zero.
func (e *Engine) After(d time.Duration, fn func()) func() {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// At schedules fn at absolute simulation time t (clamped to now if in the
// past) and returns a cancel function.
func (e *Engine) At(t time.Time, fn func()) func() {
	if fn == nil {
		panic("sim: At with nil fn")
	}
	if t.Before(e.now) {
		t = e.now
	}
	e.seq++
	e.nextID++
	ev := &event{at: t, seq: e.seq, id: e.nextID, fn: fn}
	heap.Push(&e.queue, ev)
	return func() {
		// Idempotent, and releases everything it can: the first call drops
		// the event from the heap (if still pending), its fn closure, and
		// the closure's own reference to the event struct. Callers routinely
		// hold cancel funcs long after the event fired (reconnect and
		// retry timers) — at a million devices, a retained
		// 48-byte event per held cancel is real memory, so a cancel func
		// must pin nothing once invoked.
		if ev == nil {
			return
		}
		if ev.index >= 0 {
			heap.Remove(&e.queue, ev.index)
			ev.index = -1
		}
		ev.fn = nil
		ev = nil
	}
}

var _ Scheduler = (*Engine)(nil)

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*event)
		ev.index = -1
		if ev.fn == nil { // cancelled
			continue
		}
		if ev.at.After(e.now) {
			e.now = ev.at
		}
		fn := ev.fn
		ev.fn = nil
		e.executed++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline. Events scheduled beyond deadline remain queued.
func (e *Engine) RunUntil(deadline time.Time) {
	for {
		ev := e.queue.peek()
		if ev == nil || ev.at.After(deadline) {
			break
		}
		e.Step()
	}
	if e.now.Before(deadline) {
		e.now = deadline
	}
}

// RunFor advances the simulation by d (RunUntil now+d).
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// Pending returns the number of queued (non-cancelled) events. Cancelled
// events are removed eagerly, so this is exact.
func (e *Engine) Pending() int { return e.queue.Len() }

// Executed returns the total number of events processed.
func (e *Engine) Executed() uint64 { return e.executed }

// String describes the engine state, useful in test failures.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%s pending=%d executed=%d}",
		e.now.Format(time.RFC3339Nano), e.Pending(), e.executed)
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	// Shrink the backing array once it is mostly slack: a burst of a
	// million scheduled events must not pin megabytes of pointer slots
	// for the rest of the run (popped slots are nil'd above, but the
	// array itself would otherwise never be released).
	if c := cap(old); c > 1024 && (n-1)*4 < c {
		shrunk := make(eventQueue, n-1, c/2)
		copy(shrunk, old[:n-1])
		*q = shrunk
	}
	return ev
}

func (q eventQueue) peek() *event {
	if len(q) == 0 {
		return nil
	}
	return q[0]
}
