package apps

import (
	"encoding/json"
	"slices"
	"time"

	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// ActiveStatus displays which of a user's friends are currently online
// (paper §3.4). Devices report ONLINE every 30 seconds; the WAS publishes
// each report to /AS/uid. One device subscription fans out to one Pylon
// topic per friend. The BRASS keeps a per-stream map of online friends with
// a TTL and pushes batched updates periodically so devices aren't flooded.
type ActiveStatus struct {
	// TTL is how long a status report stays fresh (paper: 30 s).
	TTL time.Duration
	// BatchInterval is the push cadence.
	BatchInterval time.Duration
}

// StatusTopic returns the Pylon topic for one user's presence.
func StatusTopic(uid socialgraph.UserID) pylon.Topic {
	return idTopic("/AS/", uint64(uid))
}

// StatusPayload is one friend-status change pushed to devices.
type StatusPayload struct {
	User   uint64 `json:"user"`
	Online bool   `json:"online"`
}

// NewActiveStatus registers the WAS half and returns the application.
func NewActiveStatus(w Registrar) *ActiveStatus {
	a := &ActiveStatus{TTL: 30 * time.Second, BatchInterval: 5 * time.Second}

	// Devices call this every 30 s while online.
	w.RegisterMutation("reportActive", func(ctx was.Ctx, call was.FieldCall) (any, error) {
		ctx.Publish(pylon.Event{Topic: StatusTopic(ctx.Viewer), Author: uint64(ctx.Viewer)}, false)
		return true, nil
	})

	// One device subscribe → one topic per friend (many BRASS→Pylon
	// subscriptions per device subscription).
	w.RegisterSubscription("activeStatus", func(ctx was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		me, err := ctx.User()
		if err != nil {
			return nil, err
		}
		friends := ctx.Srv.Graph.Friends(me.ID)
		topics := make([]pylon.Topic, len(friends))
		for i, f := range friends {
			topics[i] = StatusTopic(f)
		}
		return topics, nil
	})

	w.RegisterPayload(AppActiveStatus, func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) (any, error) {
		return StatusPayload{User: ev.Author, Online: true}, nil
	})
	return a
}

// Name implements brass.Application.
func (a *ActiveStatus) Name() string { return AppActiveStatus }

type asStream struct {
	online map[uint64]time.Time // friend → last report
	shown  map[uint64]bool      // what the device currently displays
	cancel func()
}

type asInstance struct {
	app *ActiveStatus
	rt  *brass.Runtime
}

// NewInstance implements brass.Application.
func (a *ActiveStatus) NewInstance(rt *brass.Runtime) brass.AppInstance {
	return &asInstance{app: a, rt: rt}
}

func (in *asInstance) OnStreamOpen(st *brass.Stream) error {
	if _, err := openTopics(in.rt, st); err != nil {
		return err
	}
	state := &asStream{
		online: make(map[uint64]time.Time),
		shown:  make(map[uint64]bool),
	}
	st.State = state
	in.scheduleFlush(st, state)
	return nil
}

func (in *asInstance) scheduleFlush(st *brass.Stream, state *asStream) {
	state.cancel = in.rt.After(in.app.BatchInterval, func() {
		in.flush(st, state)
		if st.State == state {
			in.scheduleFlush(st, state)
		}
	})
}

// flush diffs the fresh-online set against what the device shows and pushes
// one batch with the changes (paper: "periodically pushes a batch update"):
// the expirations, then the new onlines, each in ascending uid order.
func (in *asInstance) flush(st *brass.Stream, state *asStream) {
	now := in.rt.Now()
	var expired, online []uint64
	for uid, last := range state.online {
		switch {
		case now.Sub(last) > in.app.TTL:
			delete(state.online, uid)
			if state.shown[uid] {
				delete(state.shown, uid)
				expired = append(expired, uid)
			}
		case !state.shown[uid]:
			state.shown[uid] = true
			online = append(online, uid)
		}
	}
	var batch []burst.Delta
	add := func(uids []uint64, isOnline bool) {
		slices.Sort(uids)
		for _, uid := range uids {
			b, _ := json.Marshal(StatusPayload{User: uid, Online: isOnline})
			batch = append(batch, burst.PayloadDelta(0, b))
		}
	}
	add(expired, false)
	add(online, true)
	_ = st.Push(batch...)
}

func (in *asInstance) OnStreamClose(st *brass.Stream, reason string) {
	if state, ok := st.State.(*asStream); ok {
		if state.cancel != nil {
			state.cancel()
		}
		st.State = nil
	}
}

// OnEvent privacy-checks the report before it marks the friend online: a
// friend the viewer may not see never shows up in a batch.
func (in *asInstance) OnEvent(ev pylon.Event) {
	now := in.rt.Now()
	for _, st := range in.rt.Instance().StreamsForTopic(ev.Topic) {
		state, ok := st.State.(*asStream)
		if !ok {
			continue
		}
		if _, err := st.FetchPayload(ev); err != nil {
			st.Filtered()
			continue
		}
		state.online[ev.Author] = now
	}
}

func (in *asInstance) OnAck(st *brass.Stream, seq uint64) {}
