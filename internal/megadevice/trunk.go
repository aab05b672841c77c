package megadevice

import (
	"fmt"
	"strconv"
	"sync"

	"bladerunner/internal/burst"
)

// trunk is one real BURST session to a POP carrying every virtual device
// attached through that POP. Virtual devices subscribed to the same topic
// share ONE real request-stream per trunk: the cluster sees #POPs
// sessions and at most #POPs x #areas streams regardless of fleet size,
// and the fleet fans each delivered delta out to the attached devices on
// the apply path. A trunk that dies takes all its shared subscriptions
// with it; the fleet re-dials per device through backoff and the new
// trunk re-subscribes topics on first attach.
type trunk struct {
	f    *Fleet
	id   uint16
	pop  string
	sess *burst.Session // nil for virtual trunks (Dialer-less fleets)

	mu      sync.Mutex
	nextSID burst.StreamID
	subs    map[uint32]*topicSub         // area -> shared subscription
	bySID   map[burst.StreamID]*topicSub // stream id -> shared subscription
}

// topicSub is one shared real request-stream: the (trunk, area) pair and
// the virtual streams currently attached to it. streams is guarded by its
// own mutex so the per-delta apply path (trunk read goroutine) and
// attach/detach transitions (scheduler goroutine) serialize here and
// nowhere else.
type topicSub struct {
	trunk *trunk
	area  uint32
	sid   burst.StreamID

	mu      sync.Mutex
	streams []uint32
	header  burst.Header      // stored request header, patched by rewrites
	resume  burst.ResumePoint // what the real stream has seen; moved by frames for sid only
}

// trunkForLocked returns the live trunk for pop, dialing one if needed.
// Callers hold f.mu.
func (f *Fleet) trunkForLocked(pop string) (*trunk, error) {
	if t := f.trunks[pop]; t != nil {
		return t, nil
	}
	if len(f.trunkIDs) >= int(noTrunk) {
		return nil, fmt.Errorf("megadevice: trunk id space exhausted")
	}
	t := &trunk{
		f:     f,
		id:    uint16(len(f.trunkIDs)),
		pop:   pop,
		subs:  make(map[uint32]*topicSub),
		bySID: make(map[burst.StreamID]*topicSub),
	}
	if f.cfg.Dialer != nil {
		rwc, err := f.cfg.Dialer.Dial(pop)
		if err != nil {
			return nil, err
		}
		// The session's read loop starts immediately; its handler only
		// touches trunk/topicSub mutexes and the external queues, never
		// f.mu, so starting it under f.mu is safe.
		t.sess = burst.NewSession(fmt.Sprintf("trunk-%s-%d", pop, t.id), rwc, trunkHandler{t})
	}
	f.trunkIDs = append(f.trunkIDs, t)
	f.trunks[pop] = t
	return t, nil
}

// sub returns the shared subscription for area, sending the real
// FrameSubscribe on first use. Callers hold f.mu.
func (t *trunk) sub(area uint32) *topicSub {
	t.mu.Lock()
	if ts := t.subs[area]; ts != nil {
		t.mu.Unlock()
		return ts
	}
	t.nextSID++
	a := &t.f.cfg.Areas[area]
	ts := &topicSub{
		trunk: t,
		area:  area,
		sid:   t.nextSID,
		header: burst.Header{
			burst.HdrApp:          a.App,
			burst.HdrSubscription: a.Subscription,
			burst.HdrUser:         strconv.FormatUint(a.User, 10),
		},
	}
	if a.Cursor != "" {
		ts.header[burst.HdrCursor] = a.Cursor
	}
	t.subs[area] = ts
	t.bySID[ts.sid] = ts
	req := burst.Subscribe{Header: ts.header.Clone()}
	t.mu.Unlock()
	if t.sess != nil {
		// Fire-and-forget like burst.Client: a send failure means the
		// session is dying and HandleClose will detach everyone.
		_ = t.sess.SendMsg(burst.FrameSubscribe, ts.sid, req)
	}
	return ts
}

// resumeSub repairs a shed gap on a shared stream: cancel the shed
// subscription and reopen it under a fresh stream id from the stored
// (rewrite-maintained) request, resume tokens lowered to the stream's resume
// point — the trunk-model analogue of device.Stream.resubscribe, and the one
// place the fleet builds a resubscribe request. Frames still in flight for
// the old id find no subscription and move nothing. One reopen covers every
// virtual device attached to the stream. Called from Service, outside all
// fleet locks.
func (t *trunk) resumeSub(ts *topicSub) {
	t.mu.Lock()
	if t.sess == nil || t.subs == nil || t.subs[ts.area] != ts {
		t.mu.Unlock()
		return // virtual trunk, or drained since the marker queued
	}
	oldSID := ts.sid
	t.nextSID++
	newSID := t.nextSID
	delete(t.bySID, oldSID)
	t.bySID[newSID] = ts
	ts.sid = newSID
	ts.mu.Lock()
	req := burst.Subscribe{Header: ts.header.Clone()}
	ts.resume.Reopen(&req)
	ts.mu.Unlock()
	t.mu.Unlock()
	_ = t.sess.SendMsg(burst.FrameCancel, oldSID, burst.Cancel{Reason: "shed-resume"})
	_ = t.sess.SendMsg(burst.FrameSubscribe, newSID, req)
	t.f.Resumes.Inc()
}

// lookupSub returns the shared subscription for area, or nil.
func (t *trunk) lookupSub(area uint32) *topicSub {
	t.mu.Lock()
	ts := t.subs[area]
	t.mu.Unlock()
	return ts
}

// trunkHandler adapts a trunk to burst.FrameHandler. Frames arrive on the
// session's single read goroutine.
type trunkHandler struct{ t *trunk }

// HandleFrame decodes downstream batches and routes each delta. The frame is
// borrowed for this call (burst.FrameHandler) and everything is applied
// inside it — nothing decoded is kept — so the []Delta is the one allocation
// per wire batch; the per-delta payload application below it is the
// allocation-free hot path.
func (h trunkHandler) HandleFrame(fr burst.Frame) {
	if fr.Type != burst.FrameBatch {
		return
	}
	t := h.t
	t.mu.Lock()
	ts := t.bySID[fr.SID]
	t.mu.Unlock()
	if ts == nil {
		return // late frame for a drained trunk
	}
	batch, err := burst.DecodeBatch(fr.Payload)
	if err != nil {
		return
	}
	f := t.f
	for i := range batch.Deltas {
		d := &batch.Deltas[i]
		switch d.Type {
		case burst.DeltaPayload:
			f.applyPayload(ts, d.Seq)
		case burst.DeltaFlowStatus:
			f.applyFlow(ts, d)
		case burst.DeltaRewriteRequest:
			f.Rewrites.Inc()
			ts.mu.Lock()
			// Patch the stored request header (sticky-brass, resume
			// seq, ...) exactly as burst.Client does; the shared stream
			// carries it for the trunk's lifetime. A NEW trunk
			// re-subscribes from the area's original request — sticky
			// state is per-trunk here, per-device in device.Device;
			// that is part of the documented fidelity trade.
			ts.header = ts.header.Merge(d.Header)
			ts.mu.Unlock()
		case burst.DeltaTermination:
			f.Terminations.Inc()
		}
	}
}

// HandleClose queues the trunk death for Service; transitions must not
// run on the read goroutine (engine schedulers are single-threaded).
func (h trunkHandler) HandleClose(error) {
	h.t.f.enqueueClosed(h.t)
}
