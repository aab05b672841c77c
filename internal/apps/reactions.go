package apps

import (
	"encoding/json"
	"fmt"
	"slices"
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
	videos        *topicTable[uint64] // video → ReactionsTopic
}

// ReactionsTopic returns the Pylon topic for a video's reactions.
func ReactionsTopic(videoID uint64) pylon.Topic {
	return idTopic("/LVR/", videoID)
}

// reactionKinds are the kinds reactToVideo accepts; an event's Meta.Kind
// indexes them.
var reactionKinds = [...]string{"like", "love", "wow", "haha", "sad", "angry"}

// reactionAssocs are the counter associations, "reaction_"+kind, by kind index.
var reactionAssocs = func() (a [len(reactionKinds)]tao.AssocType) {
	for k, kind := range reactionKinds {
		a[k] = tao.AssocType("reaction_" + kind)
	}
	return a
}()

// ReactionAggregate is the device-facing batched counter update.
type ReactionAggregate struct {
	VideoID uint64           `json:"video_id"`
	Counts  map[string]int64 `json:"counts"`
}

// NewLiveVideoReactions registers the WAS half and returns the application.
func NewLiveVideoReactions(w Registrar) *LiveVideoReactions {
	a := &LiveVideoReactions{FlushInterval: time.Second, videos: newTopicTable(ReactionsTopic)}

	w.RegisterMutation("reactToVideo", func(ctx was.Ctx, call was.FieldCall) ([]byte, error) {
		videoID, err := call.Uint64Arg("videoID")
		if err != nil {
			return nil, err
		}
		kind, err := call.StringArg("kind")
		if err != nil {
			return nil, err
		}
		k := slices.Index(reactionKinds[:], kind)
		if k < 0 {
			return nil, fmt.Errorf("reactions: unknown kind %q", kind)
		}
		// Reactions are tiny and ephemeral: no TAO object per reaction,
		// only an aggregate counter association bump and the event.
		ctx.Srv.TAO.AssocAdd(tao.ObjID(videoID), reactionAssocs[k], tao.ObjID(ctx.Viewer), ctx.Now, "")
		ctx.Publish(pylon.Event{
			Topic:  a.videos.topic(videoID),
			Ref:    videoID,
			Author: uint64(ctx.Viewer),
			Meta:   pylon.Meta{Kind: uint8(k)},
		}, false)
		return []byte("true"), nil
	})

	w.RegisterSubscription("liveVideoReactions", func(ctx was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		videoID, err := call.Uint64Arg("videoID")
		if err != nil {
			return nil, err
		}
		return a.videos.list(videoID), nil
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
	proof   brass.Payload // the last counted reaction's Fetch: the flush derives from it
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
	_ = st.Push(nil, state.proof.Derive(b))
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
	if int(ev.Meta.Kind) >= len(reactionKinds) {
		return // not a kind reactToVideo publishes: ctrl events come from another process
	}
	for _, st := range in.rt.Instance().StreamsForTopic(ev.Topic) {
		state, ok := st.State.(*reactionsStream)
		if !ok {
			continue
		}
		p, ok := st.Fetch(ev, 0)
		if !ok {
			continue // a reactor the viewer may not see is not counted
		}
		state.proof = p
		state.videoID = ev.Ref
		state.counts[reactionKinds[ev.Meta.Kind]]++
		// Aggregated, not forwarded: this counts as intelligent
		// dropping in the decision/delivery accounting — the flush
		// delivers one batch regardless of the event count.
	}
}
