package megadevice

import (
	"sync/atomic"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/sim"
)

// apply carries out what the shared stream's Recovery decides about one delta
// of incarnation sid. Frames of a superseded incarnation — the trunk looked ts
// up before a reopen swapped its stream id — decide nothing. Control deltas
// are rare; the payload fan-out is the hot path, and it shares this one
// ts.mu acquisition with the decision. A reopen or a termination is queued
// for Service: transitions must not run on the trunk's read goroutine.
func (f *Fleet) apply(ts *topicSub, sid burst.StreamID, d *burst.Delta) {
	ts.mu.Lock()
	if ts.sid == sid {
		switch ts.rec.Step(d, &ts.req) {
		case burst.Apply:
			ts.lost = 0 // the incarnation reaches an upstream
			f.applyPayload(ts, d.Seq)
		case burst.Patch:
			ts.lost = 0
			// Sticky-brass, resume tokens, a new body: the shared stream
			// carries them for the trunk's lifetime. A NEW trunk re-subscribes
			// from the area's original request — sticky state is per-trunk
			// here, per-device in device.Device (DESIGN.md §10).
			f.Rewrites.Inc()
			ts.req.Patch(d)
		case burst.Surface, burst.Coalesce:
			f.FlowEvents.Inc()
		case burst.Reopen:
			// ONE reopen for the shared stream, where a real fleet would
			// reopen one stream per device (DESIGN.md §10): at once after a
			// shed gap, under the backoff after a lost upstream.
			f.FlowEvents.Inc()
			q := &f.extResumes
			if d.FlowDetail == burst.UpstreamLostDetail {
				q = &f.extLost
			}
			enqueue(f, q, ts)
		case burst.End:
			f.Terminations.Inc()
			enqueue(f, &f.extEnds, ts)
		}
	}
	ts.mu.Unlock()
}

// applyPayload fans one delivered payload delta out to every virtual device
// attached to the shared stream. This is the model's per-delta cost at 10^6
// devices — a linear pass of atomic stores over a dense uint32 slice, two
// counters, and (when a probe is armed on the topic) one histogram
// observation, all inside apply's critical section. The seq column is
// written atomically so LastSeq readers on other goroutines need no
// fleet-wide lock.
// Callers hold ts.mu.
//
//brlint:hotpath per-delta fan-in of the million-device harness: an allocation here is paid per delta, per trunk on a hot topic, per attached device.
func (f *Fleet) applyPayload(ts *topicSub, seq uint64) {
	streams := ts.streams
	if len(streams) > 0 {
		for _, dev := range streams {
			if seq > atomic.LoadUint64(&f.tab.seq[dev]) {
				atomic.StoreUint64(&f.tab.seq[dev], seq)
			}
			if f.rec != nil {
				//brlint:allow(hot-path-alloc) equivalence-test instrumentation: RecordDeliveries fleets are <=a few hundred devices, and production fleets run with rec nil so this branch never executes
				f.rec[dev] = append(f.rec[dev], seq)
			}
		}
		f.Applied.Add(int64(len(streams)))
		// Claim an armed delivery probe exactly once (Swap): the wall
		// nanos stored at mutate time become one mutate->edge-apply
		// latency sample. Claims only count when a device is attached —
		// a delta applied to zero devices delivered nothing.
		if w := atomic.SwapInt64(&f.probeWall[ts.area].v, 0); w != 0 {
			f.ApplyLatency.Observe(time.Duration(sim.RealClock{}.Now().UnixNano() - w))
		}
	}
	f.Deltas.Inc()
}

// ProbeArm arms a delivery probe on area: wallNanos (the caller's wall
// clock at mutate time) sits in the slot until the first delta applied to
// an attached device on that topic claims it.
func (f *Fleet) ProbeArm(area uint32, wallNanos int64) {
	atomic.StoreInt64(&f.probeWall[area].v, wallNanos)
}

// ProbeArmed reports whether area's probe is still unclaimed.
func (f *Fleet) ProbeArmed(area uint32) bool {
	return atomic.LoadInt64(&f.probeWall[area].v) != 0
}

// ProbeDisarm clears an unclaimed probe (timeout), reporting whether it
// was still armed.
func (f *Fleet) ProbeDisarm(area uint32) bool {
	return atomic.SwapInt64(&f.probeWall[area].v, 0) != 0
}
