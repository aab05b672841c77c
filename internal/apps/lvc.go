package apps

import (
	"strconv"
	"time"

	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// LiveVideoComments is the application that drove Bladerunner's design
// (paper §2, §3.4): viewers of a live video receive the most relevant
// comments at a prescribed maximum rate.
//
// WAS half: postComment writes the comment to TAO (object + association on
// the video's comment index), scores it with the quality model, discards
// spam, and publishes a metadata-only event to /LVC/videoID after the
// ranking delay.
//
// BRASS half: each stream keeps a ranked buffer (K elements) fed by
// per-viewer filtering (language, own comments, quality threshold); a
// periodic timer pops the top comment at the rate limit, fetches the
// payload from the WAS (privacy check included), and pushes it.
type LiveVideoComments struct {
	// Tunables (paper values as defaults).
	RateLimit time.Duration // max one push per stream per RateLimit
	BufferTTL time.Duration // comments older than this are irrelevant (paper: 10 s)
	MinScore  float64       // per-viewer quality floor

	hot     *hotTracker            // high-volume strategy (lvc_hot.go)
	videos  *topicTable[uint64]    // video → LVCTopic
	posters *topicTable[[2]uint64] // {video, poster} → LVCUserTopic
}

// lvcBufferK is each stream's ranked buffer size (paper: 5).
const lvcBufferK = 5

// CommentPayload is the device-facing JSON for one comment.
type CommentPayload struct {
	CommentID uint64  `json:"comment_id"`
	VideoID   uint64  `json:"video_id"`
	Author    uint64  `json:"author"`
	Text      string  `json:"text"`
	Score     float64 `json:"score"`
}

// LVCTopic returns the Pylon topic for a video's comments.
func LVCTopic(videoID uint64) pylon.Topic {
	return idTopic("/LVC/", videoID)
}

// NewLiveVideoComments registers the WAS half and returns the application.
func NewLiveVideoComments(w Registrar) *LiveVideoComments {
	a := &LiveVideoComments{
		RateLimit: 2 * time.Second,
		BufferTTL: 10 * time.Second,
		MinScore:  0.2,
		hot:       newHotTracker(DefaultHotThreshold, DefaultHotWindow),
		videos:    newTopicTable(LVCTopic),
		posters:   newTopicTable(func(k [2]uint64) pylon.Topic { return LVCUserTopic(k[0], socialgraph.UserID(k[1])) }),
	}

	w.RegisterMutation("postComment", func(ctx was.Ctx, call was.FieldCall) ([]byte, error) {
		videoID, err := call.Uint64Arg("videoID")
		if err != nil {
			return nil, err
		}
		text, err := call.StringArg("text")
		if err != nil {
			return nil, err
		}
		author, err := ctx.User()
		if err != nil {
			return nil, err
		}
		score := was.QualityScore(author, text)
		stored := score4(score)

		// The comment is always stored...
		ref := ctx.Srv.TAO.ObjectAdd("comment", uint64(author.ID), videoID, stored, tao.Props{{"text", text}})
		ctx.Srv.TAO.AssocAdd(tao.ObjID(videoID), "video_comment", ref, ctx.Now, "")

		// ...but spam and junk never reach Pylon (WAS pre-ranking).
		if score < was.SpamThreshold {
			return strconv.AppendUint(nil, uint64(ref), 10), nil
		}
		ev := pylon.Event{Topic: a.videos.topic(videoID), Ref: uint64(ref), Author: uint64(author.ID),
			Meta: pylon.Meta{Score: stored, Lang: uint8(author.Lang)}}
		// High-volume strategy (§3.4): on hot videos, only extremely
		// high-ranked comments hit the main topic; ordinary ones go to
		// the poster's per-user topic (delivered only toward the
		// poster's friends); the rest are discarded at the WAS.
		if a.hot.observe(videoID, ctx.Now) {
			switch {
			case score >= HighRankCutoff:
			case score < HotDiscardCutoff:
				return strconv.AppendUint(nil, uint64(ref), 10), nil // discarded during the storm; still durable in TAO
			default:
				ev.Topic = a.posters.topic([2]uint64{videoID, uint64(author.ID)})
			}
		}
		ctx.Publish(ev, true) // rankable: WAS.RankDelay, when set, holds it
		return strconv.AppendUint(nil, uint64(ref), 10), nil
	})

	w.RegisterSubscription("liveVideoComments", func(ctx was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		videoID, err := call.Uint64Arg("videoID")
		if err != nil {
			return nil, err
		}
		topics := a.videos.list(videoID)
		// High-volume strategy: the BRASS additionally subscribes to
		// the per-poster topic of each of the viewer's friends, so
		// ordinary comments reach only viewers who know the poster (the
		// first append copies the video's shared list).
		if a.hot.isHot(videoID) && ctx.Viewer != 0 {
			for _, f := range ctx.Srv.Graph.Friends(ctx.Viewer) {
				topics = append(topics, a.posters.topic([2]uint64{videoID, uint64(f)}))
			}
		}
		return topics, nil
	})

	// The poll-model read path (used by the baseline comparison and for
	// initial state): a range query over the video's comment index. A poll
	// is a delivery like any other: a comment whose author the viewer may
	// not see is skipped; the answer is the kept comments' JSON array.
	w.RegisterQuery("videoComments", func(ctx was.Ctx, call was.FieldCall) ([]byte, error) {
		videoID, err := call.Uint64Arg("videoID")
		if err != nil {
			return nil, err
		}
		limit := 20
		if n, err := call.Uint64Arg("limit"); err == nil {
			limit = int(n)
		}
		assocs := ctx.Reader().AssocRange(tao.ObjID(videoID), "video_comment", 0, limit)
		out := []byte{'['}
		for _, as := range assocs {
			p, err := a.payload(ctx, as.ID2)
			if err == nil && ctx.Srv.PrivacyCheck(ctx.Viewer, socialgraph.UserID(p.Author)) {
				out = append(p.AppendJSON(out), ',')
			}
		}
		return append(out[:max(1, len(out)-1)], ']'), nil // the last ',' dropped
	})

	w.RegisterPayload(AppLiveComments, func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) ([]byte, error) {
		p, err := a.payload(ctx, ref)
		if err != nil {
			return nil, err
		}
		return p.AppendJSON(nil), nil
	})
	return a
}

func (a *LiveVideoComments) payload(ctx was.Ctx, ref tao.ObjID) (CommentPayload, error) {
	obj, err := ctx.Reader().ObjectGet(ref)
	if err != nil {
		return CommentPayload{}, err
	}
	return CommentPayload{CommentID: uint64(ref), VideoID: obj.Parent, Author: obj.Author,
		Text: obj.Data.Get("text"), Score: obj.Score}, nil
}

// Name implements brass.Application.
func (a *LiveVideoComments) Name() string { return AppLiveComments }

// lvcStream is the per-stream BRASS state.
type lvcStream struct {
	buffer  brass.RankedBuffer
	limiter brass.RateLimiter
	lang    int // viewerLang of the stream's lang header
	cancel  func()
}

// anyLang is a stream without a lang header: its viewer reads every language.
const anyLang = -1

// viewerLang reads the lang header once, at open. It is device input: a
// spelling no Lang prints as ("02", "abc", "256") is -2, which matches none.
func viewerLang(h string) int {
	n, _ := strconv.Atoi(h) // what fails to parse fails the Itoa check too
	switch {
	case h == "":
		return anyLang
	case strconv.Itoa(int(uint8(n))) != h:
		return -2
	}
	return n
}

type lvcInstance struct {
	app *LiveVideoComments
	rt  *brass.Runtime
}

// NewInstance implements brass.Application.
func (a *LiveVideoComments) NewInstance(rt *brass.Runtime) brass.AppInstance {
	return &lvcInstance{app: a, rt: rt}
}

func (in *lvcInstance) OnStreamOpen(st *brass.Stream) error {
	if _, err := openTopics(in.rt, st); err != nil {
		return err
	}
	state := &lvcStream{
		buffer:  brass.RankedBuffer{K: lvcBufferK, TTL: in.app.BufferTTL},
		limiter: brass.RateLimiter{Interval: in.app.RateLimit},
		lang:    viewerLang(st.Header(HdrLang)),
	}
	state.limiter.RestoreHeaderState(st.Header(brass.HdrRateLimiterState), in.rt.Now())
	st.State = state
	in.scheduleFlush(st, state)
	return nil
}

// scheduleFlush arms the per-stream delivery timer at the rate limit.
func (in *lvcInstance) scheduleFlush(st *brass.Stream, state *lvcStream) {
	state.cancel = in.rt.After(in.app.RateLimit, func() {
		in.flush(st, state)
		if st.State == state { // still open
			in.scheduleFlush(st, state)
		}
	})
}

// flush pops the most relevant fresh comment and pushes it.
func (in *lvcInstance) flush(st *brass.Stream, state *lvcStream) {
	now := in.rt.Now()
	state.buffer.Expire(now)
	if !state.limiter.Allow(now) {
		return
	}
	for {
		item, ok := state.buffer.Pop(now)
		if !ok {
			return
		}
		p, ok := st.Fetch(pylon.Event{Ref: item.Seq, Author: item.Author, Trace: item.Trace}, item.Seq)
		if !ok {
			continue // privacy denial or fetch failure: the next candidate
		}
		// One decision, one frame: the comment and the limiter-state
		// rewrite (the persisted cadence a replacement BRASS resumes from
		// after failover, §3.5 "Resumption").
		_ = st.Push(burst.Header{brass.HdrRateLimiterState: state.limiter.HeaderState()}, p)
		return
	}
}

func (in *lvcInstance) OnStreamClose(st *brass.Stream, reason string) {
	if state, ok := st.State.(*lvcStream); ok {
		if state.cancel != nil {
			state.cancel()
		}
		st.State = nil
	}
}

func (in *lvcInstance) OnEvent(ev pylon.Event) {
	for _, st := range in.rt.Instance().StreamsForTopic(ev.Topic) {
		state, ok := st.State.(*lvcStream)
		if !ok {
			continue
		}
		// Per-viewer filtering on metadata only — no payload fetched for
		// comments that never surface: below the quality floor, the
		// viewer's own (they already see it locally), another language.
		if ev.Meta.Score < in.app.MinScore || ev.Author == uint64(st.Viewer) ||
			state.lang != anyLang && state.lang != int(ev.Meta.Lang) {
			st.Filtered()
			continue
		}
		state.buffer.Add(brass.RankedItem{
			Score:  ev.Meta.Score,
			Time:   in.rt.Now(),
			Seq:    ev.Ref,
			Author: ev.Author,
			Trace:  ev.Trace,
		})
	}
}
