package apps

import (
	"fmt"
	"strconv"

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
type TypingIndicator struct{}

// TypingTopic returns the topic for one user's typing state in a thread.
func TypingTopic(threadID uint64, uid uint64) pylon.Topic {
	return pylon.Topic(fmt.Sprintf("/TI/%d/%d", threadID, uid))
}

// TypingPayload is the device-facing typing-state change.
type TypingPayload struct {
	Thread uint64 `json:"thread"`
	User   uint64 `json:"user"`
	Typing bool   `json:"typing"`
}

// NewTypingIndicator registers the WAS half and returns the application.
func NewTypingIndicator(w Registrar) *TypingIndicator {
	a := &TypingIndicator{}

	w.RegisterMutation("setTyping", func(ctx was.Ctx, call was.FieldCall) (any, error) {
		thread, err := call.Uint64Arg("threadID")
		if err != nil {
			return nil, err
		}
		on, err := call.StringArg("on")
		if err != nil {
			return nil, err
		}
		ctx.Publish(pylon.Event{
			Topic:  TypingTopic(thread, uint64(ctx.Viewer)),
			Author: uint64(ctx.Viewer),
			Meta:   map[string]string{"thread": strconv.FormatUint(thread, 10), "on": on},
		}, false)
		return true, nil
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
		return []pylon.Topic{TypingTopic(thread, peer)}, nil
	})

	w.RegisterPayload(AppTyping, func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) (any, error) {
		thread, _ := strconv.ParseUint(ev.Meta["thread"], 10, 64)
		return TypingPayload{Thread: thread, User: ev.Author, Typing: ev.Meta["on"] == "true"}, nil
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
		payload, err := st.FetchPayload(ev)
		if err != nil {
			st.Filtered() // privacy denial
			continue
		}
		_ = st.PushPayload(ev, ev.ID, payload)
	}
}

func (in *tiInstance) OnAck(st *brass.Stream, seq uint64) {}
