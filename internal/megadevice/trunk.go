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
	req     burst.Subscribe // stored request, patched by rewrites
	rec     burst.Recovery  // stepped by the deltas of sid, the current incarnation, only
	lost    uint8           // upstream-lost reopens since an incarnation last reached an upstream
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

// sub returns the shared subscription for area, creating it on first use;
// fresh reports that the caller has yet to open it. Callers hold f.mu.
func (t *trunk) sub(area uint32) (ts *topicSub, fresh bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ts := t.subs[area]; ts != nil {
		return ts, false
	}
	a := &t.f.cfg.Areas[area]
	ts = &topicSub{trunk: t, area: area}
	ts.req.Header = burst.Header{
		burst.HdrApp:          a.App,
		burst.HdrSubscription: a.Subscription,
		burst.HdrUser:         strconv.FormatUint(a.User, 10),
	}
	if a.Cursor != "" {
		ts.req.Header[burst.HdrCursor] = a.Cursor
	}
	t.subs[area] = ts
	return ts, true
}

// resumeSub carries out a reopen its Recovery answered — a shed gap or a lost
// upstream: cancel the shared stream's incarnation and reopen it from the
// stored request, as device.Stream's reopen does. One reopen covers every
// virtual device attached to the stream. Called from Service, or after a
// lost upstream's backoff, outside all fleet locks.
func (t *trunk) resumeSub(ts *topicSub) {
	t.mu.Lock()
	if t.sess == nil || t.subs[ts.area] != ts {
		t.mu.Unlock()
		return // virtual trunk, or drained or ended since the marker queued
	}
	if t.openUnlock(ts, true) {
		t.f.Resumes.Inc()
	}
}

// openUnlock opens ts's next incarnation under a fresh stream id from the
// stored (rewrite-maintained) request, its cursor lowered to what the
// stream has seen, cancelling the incarnation it replaces if asked to — the
// one place the fleet builds a subscribe request, as resubscribe is the
// device's. Frames still in flight for the old id find no subscription and
// move nothing. It reports false, and opens nothing, for a stream a
// termination has ended. Callers hold t.mu, which openUnlock releases before
// it sends anything: the session's read goroutine takes it for every frame.
func (t *trunk) openUnlock(ts *topicSub, cancelOld bool) bool {
	ts.mu.Lock()
	if ts.rec.Ended() {
		ts.mu.Unlock()
		t.mu.Unlock()
		return false
	}
	old := ts.sid
	delete(t.bySID, old)
	t.nextSID++
	ts.sid = t.nextSID
	t.bySID[ts.sid] = ts
	ts.rec.Reopen(&ts.req)
	// A copy: rewrites patch the stored header while this one is on the wire.
	sid, req := ts.sid, burst.Subscribe{Header: ts.req.Header.Clone(), Body: ts.req.Body}
	ts.mu.Unlock()
	t.mu.Unlock()
	if t.sess != nil {
		// Fire-and-forget like burst.Client: a send failure means the
		// session is dying and HandleClose will detach everyone.
		if cancelOld {
			_ = t.sess.SendMsg(burst.FrameCancel, old, burst.Cancel{Reason: "reopen"})
		}
		_ = t.sess.SendMsg(burst.FrameSubscribe, sid, req)
	}
	return true
}

// endSub executes a termination: the shared stream leaves the trunk and the
// virtual streams attached to it are returned for the fleet to mark ended.
// A device that attaches to the area later opens a fresh stream, as a new
// device.Subscribe would. Called from Service, under f.mu.
func (t *trunk) endSub(ts *topicSub) []uint32 {
	t.mu.Lock()
	if t.subs[ts.area] == ts {
		delete(t.subs, ts.area)
		delete(t.bySID, ts.sid)
	}
	t.mu.Unlock()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	streams := ts.streams
	ts.streams = nil
	return streams
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

// HandleFrame decodes downstream batches and applies each delta. The frame is
// borrowed for this call (burst.FrameHandler) and everything is applied
// inside it — nothing decoded is kept — so the []Delta is the one allocation
// per wire batch; the per-delta application below it is the allocation-free
// hot path.
func (h trunkHandler) HandleFrame(fr burst.Frame) {
	if fr.Type != burst.FrameBatch {
		return
	}
	t := h.t
	t.mu.Lock()
	ts := t.bySID[fr.SID]
	t.mu.Unlock()
	if ts == nil {
		return // late frame for a drained trunk or a superseded incarnation
	}
	batch, err := burst.DecodeBatch(fr.Payload)
	if err != nil {
		return
	}
	for i := range batch.Deltas {
		t.f.apply(ts, fr.SID, &batch.Deltas[i])
	}
}

// HandleClose queues the trunk death for Service; transitions must not
// run on the read goroutine (engine schedulers are single-threaded).
func (h trunkHandler) HandleClose(error) {
	enqueue(h.t.f, &h.t.f.extClosed, h.t)
}
