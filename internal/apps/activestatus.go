package apps

import (
	"cmp"
	"slices"
	"time"

	"bladerunner/internal/brass"
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
	users         *topicTable[socialgraph.UserID] // user → StatusTopic
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
	a := &ActiveStatus{TTL: 30 * time.Second, BatchInterval: 5 * time.Second, users: newTopicTable(StatusTopic)}

	// Devices call this every 30 s while online.
	w.RegisterMutation("reportActive", func(ctx was.Ctx, call was.FieldCall) ([]byte, error) {
		ctx.Publish(pylon.Event{Topic: a.users.topic(ctx.Viewer), Author: uint64(ctx.Viewer)}, false)
		return []byte("true"), nil
	})

	// One device subscribe → one topic per friend (many BRASS→Pylon
	// subscriptions per device subscription).
	w.RegisterSubscription("activeStatus", func(ctx was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		me, err := ctx.User()
		if err != nil {
			return nil, err
		}
		return a.users.topics(ctx.Srv.Graph.Friends(me.ID)), nil
	})

	w.RegisterPayload(AppActiveStatus, func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) ([]byte, error) {
		return StatusPayload{User: ev.Author, Online: true}.AppendJSON(nil), nil
	})
	return a
}

// Name implements brass.Application.
func (a *ActiveStatus) Name() string { return AppActiveStatus }

type asStream struct {
	online map[uint64]asReport // friend → last report
	shown  map[uint64]bool     // what the device currently displays
	cancel func()
}

// asReport is a friend's last report the viewer may see: when it came, and
// the Fetch that cleared it, the proof of every status pushed for the friend.
type asReport struct {
	uid   uint64
	at    time.Time
	proof brass.Payload
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
		online: make(map[uint64]asReport),
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
	var expired, online []asReport
	for uid, r := range state.online {
		switch {
		case now.Sub(r.at) > in.app.TTL:
			delete(state.online, uid)
			if state.shown[uid] {
				delete(state.shown, uid)
				expired = append(expired, r)
			}
		case !state.shown[uid]:
			state.shown[uid] = true
			online = append(online, r)
		}
	}
	var batch []brass.Payload
	add := func(rs []asReport, isOnline bool) {
		slices.SortFunc(rs, func(a, b asReport) int { return cmp.Compare(a.uid, b.uid) })
		for _, r := range rs {
			batch = append(batch, r.proof.Derive(StatusPayload{User: r.uid, Online: isOnline}.AppendJSON(nil)))
		}
	}
	add(expired, false)
	add(online, true)
	_ = st.Push(nil, batch...)
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
		if p, ok := st.Fetch(ev, 0); ok {
			state.online[ev.Author] = asReport{uid: ev.Author, at: now, proof: p}
		}
	}
}
