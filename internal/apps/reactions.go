package apps

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"bladerunner/internal/brass"
	"bladerunner/internal/pylon"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// AppReactions is the LiveVideoReactions application name.
const AppReactions = "reactions"

// LiveVideoReactions is the floating-hearts overlay on live videos (one of
// the prominent applications listed in §1). Its BRASS pattern is
// *aggregation*: individual reaction events are never forwarded; each
// stream accumulates per-kind counts and the BRASS pushes a summed batch
// per interval. At a million reactions per minute the device receives a
// handful of counters — the strongest possible form of "drop messages
// intelligently".
type LiveVideoReactions struct {
	// FlushInterval is the aggregate push cadence.
	FlushInterval time.Duration
}

// ReactionsTopic returns the Pylon topic for a video's reactions.
func ReactionsTopic(videoID uint64) pylon.Topic {
	return idTopic("/LVR/", videoID)
}

// ReactionAggregate is the device-facing batched counter update.
type ReactionAggregate struct {
	VideoID uint64           `json:"video_id"`
	Counts  map[string]int64 `json:"counts"`
}

// NewLiveVideoReactions registers the WAS half and returns the application.
func NewLiveVideoReactions(w Registrar) *LiveVideoReactions {
	a := &LiveVideoReactions{FlushInterval: time.Second}

	w.RegisterMutation("reactToVideo", func(ctx was.Ctx, call was.FieldCall) (any, error) {
		videoID, err := call.Uint64Arg("videoID")
		if err != nil {
			return nil, err
		}
		kind, err := call.StringArg("kind")
		if err != nil {
			return nil, err
		}
		switch kind {
		case "like", "love", "wow", "haha", "sad", "angry":
		default:
			return nil, fmt.Errorf("reactions: unknown kind %q", kind)
		}
		// Reactions are tiny and ephemeral: no TAO object per reaction,
		// only an aggregate counter association bump and the event.
		ctx.Srv.TAO.AssocAdd(tao.ObjID(videoID), tao.AssocType("reaction_"+kind),
			tao.ObjID(ctx.Viewer), ctx.Now, "")
		ctx.Publish(pylon.Event{
			Topic:  ReactionsTopic(videoID),
			Author: uint64(ctx.Viewer),
			Meta:   map[string]string{"kind": kind, "video": strconv.FormatUint(videoID, 10)},
		}, false)
		return true, nil
	})

	w.RegisterSubscription("liveVideoReactions", func(ctx was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		videoID, err := call.Uint64Arg("videoID")
		if err != nil {
			return nil, err
		}
		return []pylon.Topic{ReactionsTopic(videoID)}, nil
	})

	w.RegisterPayload(AppReactions, func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) ([]byte, error) {
		// Aggregates are assembled BRASS-side; a fetch is the privacy
		// check that gates counting a reaction, and nothing reads bytes.
		return nil, nil
	})
	return a
}

// Name implements brass.Application.
func (a *LiveVideoReactions) Name() string { return AppReactions }

type reactionsStream struct {
	videoID uint64
	counts  map[string]int64
	cancel  func()
}

type reactionsInstance struct {
	app *LiveVideoReactions
	rt  *brass.Runtime
}

// NewInstance implements brass.Application.
func (a *LiveVideoReactions) NewInstance(rt *brass.Runtime) brass.AppInstance {
	return &reactionsInstance{app: a, rt: rt}
}

func (in *reactionsInstance) OnStreamOpen(st *brass.Stream) error {
	if _, err := openTopics(in.rt, st); err != nil {
		return err
	}
	state := &reactionsStream{counts: make(map[string]int64)}
	st.State = state
	in.scheduleFlush(st, state)
	return nil
}

func (in *reactionsInstance) scheduleFlush(st *brass.Stream, state *reactionsStream) {
	state.cancel = in.rt.After(in.app.FlushInterval, func() {
		in.flush(st, state)
		if st.State == state {
			in.scheduleFlush(st, state)
		}
	})
}

func (in *reactionsInstance) flush(st *brass.Stream, state *reactionsStream) {
	if len(state.counts) == 0 {
		return
	}
	agg := ReactionAggregate{VideoID: state.videoID, Counts: state.counts}
	state.counts = make(map[string]int64)
	b, err := json.Marshal(agg)
	if err != nil {
		return
	}
	_ = st.PushPayload(pylon.Event{}, 0, b)
}

func (in *reactionsInstance) OnStreamClose(st *brass.Stream, reason string) {
	if state, ok := st.State.(*reactionsStream); ok {
		if state.cancel != nil {
			state.cancel()
		}
		st.State = nil
	}
}

func (in *reactionsInstance) OnEvent(ev pylon.Event) {
	kind := ev.Meta["kind"]
	video, _ := strconv.ParseUint(ev.Meta["video"], 10, 64)
	for _, st := range in.rt.Instance().StreamsForTopic(ev.Topic) {
		state, ok := st.State.(*reactionsStream)
		if !ok {
			continue
		}
		if _, err := st.FetchPayload(ev); err != nil {
			st.Filtered() // a reactor the viewer may not see is not counted
			continue
		}
		state.videoID = video
		state.counts[kind]++
		// Aggregated, not forwarded: this counts as intelligent
		// dropping in the decision/delivery accounting — the flush
		// delivers one batch regardless of the event count.
	}
}
