package megadevice

import (
	"sync/atomic"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/overload"
)

// applyPayload fans one delivered payload delta out to every virtual
// device attached to the shared stream. This is the model's per-delta
// cost at 10^6 devices — a mutex, a linear pass of atomic stores over a
// dense uint32 slice, two counters, and (when a probe is armed on the
// topic) one histogram observation. streamSeq is written atomically so
// LastSeq readers on other goroutines need no fleet-wide lock.
//
// run through them.
//
// delta delivered to every trunk on a hot topic multiplied by fleet size
//
//brlint:hotpath per-delta fan-in for the million-device harness: every
func (f *Fleet) applyPayload(ts *topicSub, seq uint64) {
	ts.mu.Lock()
	ts.resume.Payload(seq)
	streams := ts.streams
	if len(streams) > 0 {
		for _, sid := range streams {
			if seq > atomic.LoadUint64(&f.tab.streamSeq[sid]) {
				atomic.StoreUint64(&f.tab.streamSeq[sid], seq)
			}
			if f.rec != nil {
				//brlint:allow(hot-path-alloc) equivalence-test instrumentation: RecordDeliveries fleets are <=a few hundred devices, and production fleets run with rec nil so this branch never executes
				f.rec[sid] = append(f.rec[sid], seq)
			}
		}
		f.Applied.Add(int64(len(streams)))
		// Claim an armed delivery probe exactly once (Swap): the wall
		// nanos stored at mutate time become one mutate->edge-apply
		// latency sample. Claims only count when a device is attached —
		// a delta applied to zero devices delivered nothing.
		if w := atomic.SwapInt64(&f.probeWall[ts.area].v, 0); w != 0 {
			f.ApplyLatency.Observe(time.Duration(f.clock.Now().UnixNano() - w))
		}
	}
	f.Deltas.Inc()
	ts.mu.Unlock()
}

// applyFlow handles flow_status deltas on a shared stream: count them, and
// on a shed marker do what device.Stream does — if the stored request
// carries a resume token, freeze the shared stream's resume point and queue
// ONE reopen for it (a real fleet would reopen one stream per device; the
// trunk model coalesces them). Flow deltas are rare control traffic — not
// part of the hot path.
func (f *Fleet) applyFlow(ts *topicSub, d *burst.Delta) {
	f.FlowEvents.Inc()
	if d.Flow != burst.FlowDegraded || !overload.IsShedMarker(d.FlowDetail) {
		return
	}
	ts.mu.Lock()
	resumable := ts.header[burst.HdrCursor] != "" || ts.header[burst.HdrResumeSeq] != ""
	if resumable {
		ts.resume.Shed()
	}
	ts.mu.Unlock()
	if resumable {
		f.enqueueResume(ts)
	}
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

// LastSeq returns the highest payload seq applied to stream sid.
func (f *Fleet) LastSeq(sid uint32) uint64 {
	return atomic.LoadUint64(&f.tab.streamSeq[sid])
}

// DeliveredCount returns the length of sid's recorded delivery trace
// (RecordDeliveries fleets only; 0 otherwise). Safe to poll while traffic
// flows — it locks the stream's current membership out briefly via the
// fleet mutex plus trunk lookup being unnecessary: the count is read
// under the same mutex ordering the appends (see DeliveredSeqs).
func (f *Fleet) DeliveredCount(sid uint32) int {
	if f.rec == nil {
		return 0
	}
	f.mu.Lock()
	t := f.trunkOfStreamLocked(sid)
	f.mu.Unlock()
	if t == nil {
		return len(f.rec[sid])
	}
	ts := t.lookupSub(f.areaOf[f.tab.streamTopic[sid]])
	if ts == nil {
		return len(f.rec[sid])
	}
	ts.mu.Lock()
	n := len(f.rec[sid])
	ts.mu.Unlock()
	return n
}

// DeliveredSeqs returns a copy of sid's full delivery trace. The appends
// run under the owning topicSub's mutex; taking that same mutex here
// orders the read after every delivery so far.
func (f *Fleet) DeliveredSeqs(sid uint32) []uint64 {
	if f.rec == nil {
		return nil
	}
	f.mu.Lock()
	t := f.trunkOfStreamLocked(sid)
	f.mu.Unlock()
	if t != nil {
		if ts := t.lookupSub(f.areaOf[f.tab.streamTopic[sid]]); ts != nil {
			ts.mu.Lock()
			defer ts.mu.Unlock()
			return append([]uint64(nil), f.rec[sid]...)
		}
	}
	return append([]uint64(nil), f.rec[sid]...)
}

// trunkOfStreamLocked returns the trunk sid's owner is attached through,
// or nil. Callers hold f.mu.
func (f *Fleet) trunkOfStreamLocked(sid uint32) *trunk {
	tid := f.tab.trunk[f.tab.streamOwner[sid]]
	if tid == noTrunk {
		return nil
	}
	return f.trunkIDs[tid]
}
