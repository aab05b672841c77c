package apps

import (
	"bladerunner/internal/brass"
	"bladerunner/internal/pylon"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// TypingIndicator shows the dancing ellipses when a counterparty types
// (paper §3.4). Start/stop reports publish to /TI/threadID/uid; devices
// subscribe to /TI/threadID/counterpartyID. Events are pushed as they
// arrive — no buffering — but each delivery still passes through the WAS
// for privacy checking and device-specific transformation (Fig 9's
// description of the generalized TypingIndicator).
type TypingIndicator struct {
	topics *topicTable[[2]uint64] // {thread, uid} → TypingTopic
}

// TypingTopic returns the topic for one user's typing state in a thread.
func TypingTopic(threadID uint64, uid uint64) pylon.Topic {
	return pairTopic("/TI/", threadID, uid)
}

// TypingPayload is the device-facing typing-state change.
type TypingPayload struct {
	Thread uint64 `json:"thread"`
	User   uint64 `json:"user"`
	Typing bool   `json:"typing"`
}

// NewTypingIndicator registers the WAS half and returns the application.
func NewTypingIndicator(w Registrar) *TypingIndicator {
	a := &TypingIndicator{topics: newTopicTable(func(k [2]uint64) pylon.Topic { return TypingTopic(k[0], k[1]) })}

	w.RegisterMutation("setTyping", func(ctx was.Ctx, call was.FieldCall) ([]byte, error) {
		thread, err := call.Uint64Arg("threadID")
		if err != nil {
			return nil, err
		}
		on, err := call.StringArg("on")
		if err != nil {
			return nil, err
		}
		ctx.Publish(pylon.Event{
			Topic:  a.topics.topic([2]uint64{thread, uint64(ctx.Viewer)}),
			Ref:    thread,
			Author: uint64(ctx.Viewer),
			Meta:   pylon.Meta{On: on == "true"},
		}, false)
		return []byte("true"), nil
	})

	w.RegisterSubscription("typingIndicator", func(ctx was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		thread, err := call.Uint64Arg("threadID")
		if err != nil {
			return nil, err
		}
		peer, err := call.Uint64Arg("peer")
		if err != nil {
			return nil, err
		}
		return a.topics.list([2]uint64{thread, peer}), nil
	})

	w.RegisterPayload(AppTyping, func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) ([]byte, error) {
		return TypingPayload{Thread: ev.Ref, User: ev.Author, Typing: ev.Meta.On}.AppendJSON(nil), nil
	})
	return a
}

// Name implements brass.Application.
func (a *TypingIndicator) Name() string { return AppTyping }

type tiInstance struct {
	app *TypingIndicator
	rt  *brass.Runtime
}

// NewInstance implements brass.Application.
func (a *TypingIndicator) NewInstance(rt *brass.Runtime) brass.AppInstance {
	return &tiInstance{app: a, rt: rt}
}

func (in *tiInstance) OnStreamOpen(st *brass.Stream) error {
	_, err := openTopics(in.rt, st)
	return err
}

func (in *tiInstance) OnStreamClose(st *brass.Stream, reason string) {}

func (in *tiInstance) OnEvent(ev pylon.Event) {
	for _, st := range in.rt.Instance().StreamsForTopic(ev.Topic) {
		if p, ok := st.Fetch(ev, ev.ID); ok {
			_ = st.Push(nil, p)
		}
	}
}
