package apps

import (
	"strconv"
	"time"

	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/pylon"
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
	RateLimit         time.Duration // max one push per stream per RateLimit
	BufferK           int           // ranked buffer size (paper: 5)
	BufferTTL         time.Duration // comments older than this are irrelevant (paper: 10 s)
	MinScore          float64       // per-viewer quality floor
	RankBeforePublish bool          // WAS-side pre-ranking of comments

	// High-volume strategy tunables (lvc_hot.go).
	HighRankCutoff   float64 // hot mode: scores >= this go to the main topic
	HotDiscardCutoff float64 // hot mode: scores < this are discarded at the WAS
	hot              *hotTracker
}

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
		RateLimit:         2 * time.Second,
		BufferK:           5,
		BufferTTL:         10 * time.Second,
		MinScore:          0.2,
		RankBeforePublish: true,
		HighRankCutoff:    DefaultHighRankCutoff,
		HotDiscardCutoff:  DefaultHotDiscardCutoff,
		hot:               newHotTracker(DefaultHotThreshold, DefaultHotWindow),
	}

	w.RegisterMutation("postComment", func(ctx was.Ctx, call was.FieldCall) (any, error) {
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

		// The comment is always stored...
		ref := ctx.Srv.TAO.ObjectAdd("comment", tao.Props{
			{"text", text},
			{"author", strconv.FormatUint(uint64(author.ID), 10)},
			{"video", strconv.FormatUint(videoID, 10)},
			{"score", strconv.FormatFloat(score, 'f', 4, 64)},
			{"lang", strconv.Itoa(int(author.Lang))},
		})
		ctx.Srv.TAO.AssocAdd(tao.ObjID(videoID), "video_comment", ref, ctx.Now, "")

		// ...but spam and junk never reach Pylon (WAS pre-ranking).
		if score < was.SpamThreshold {
			return uint64(ref), nil
		}
		ev := pylon.Event{Topic: LVCTopic(videoID), Ref: uint64(ref), Author: uint64(author.ID),
			Meta: map[string]string{
				"score": strconv.FormatFloat(score, 'f', 4, 64),
				"lang":  strconv.Itoa(int(author.Lang)),
			}}
		// High-volume strategy (§3.4): on hot videos, only extremely
		// high-ranked comments hit the main topic; ordinary ones go to
		// the poster's per-user topic (delivered only toward the
		// poster's friends); the rest are discarded at the WAS.
		if a.hot.observe(videoID, ctx.Now) {
			switch {
			case score >= a.HighRankCutoff:
			case score < a.HotDiscardCutoff:
				return uint64(ref), nil // discarded during the storm; still durable in TAO
			default:
				ev.Topic = LVCUserTopic(videoID, author.ID)
			}
		}
		ctx.Publish(ev, a.RankBeforePublish)
		return uint64(ref), nil
	})

	w.RegisterSubscription("liveVideoComments", func(ctx was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		videoID, err := call.Uint64Arg("videoID")
		if err != nil {
			return nil, err
		}
		topics := []pylon.Topic{LVCTopic(videoID)}
		// High-volume strategy: the BRASS additionally subscribes to
		// the per-poster topic of each of the viewer's friends, so
		// ordinary comments reach only viewers who know the poster.
		if a.hot.isHot(videoID) && ctx.Viewer != 0 {
			for _, f := range ctx.Srv.Graph.Friends(ctx.Viewer) {
				topics = append(topics, LVCUserTopic(videoID, f))
			}
		}
		return topics, nil
	})

	// The poll-model read path (used by the baseline comparison and for
	// initial state): a range query over the video's comment index.
	w.RegisterQuery("videoComments", func(ctx was.Ctx, call was.FieldCall) (any, error) {
		videoID, err := call.Uint64Arg("videoID")
		if err != nil {
			return nil, err
		}
		limit := 20
		if n, err := call.Uint64Arg("limit"); err == nil {
			limit = int(n)
		}
		assocs := ctx.Reader().AssocRange(tao.ObjID(videoID), "video_comment", 0, limit)
		out := make([]CommentPayload, 0, len(assocs))
		for _, as := range assocs {
			p, err := a.payload(ctx, as.ID2)
			if err != nil {
				continue
			}
			out = append(out, p)
		}
		return out, nil
	})

	w.RegisterPayload(AppLiveComments, func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) (any, error) {
		return a.payload(ctx, ref)
	})
	return a
}

func (a *LiveVideoComments) payload(ctx was.Ctx, ref tao.ObjID) (CommentPayload, error) {
	obj, err := ctx.Reader().ObjectGet(ref)
	if err != nil {
		return CommentPayload{}, err
	}
	author, _ := strconv.ParseUint(obj.Data.Get("author"), 10, 64)
	video, _ := strconv.ParseUint(obj.Data.Get("video"), 10, 64)
	score, _ := strconv.ParseFloat(obj.Data.Get("score"), 64)
	return CommentPayload{
		CommentID: uint64(ref),
		VideoID:   video,
		Author:    author,
		Text:      obj.Data.Get("text"),
		Score:     score,
	}, nil
}

// Name implements brass.Application.
func (a *LiveVideoComments) Name() string { return AppLiveComments }

// lvcStream is the per-stream BRASS state.
type lvcStream struct {
	buffer  brass.RankedBuffer
	limiter brass.RateLimiter
	lang    string
	cancel  func()
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
		buffer:  brass.RankedBuffer{K: in.app.BufferK, TTL: in.app.BufferTTL},
		limiter: brass.RateLimiter{Interval: in.app.RateLimit},
		lang:    st.Header(HdrLang),
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
		ev := pylon.Event{Ref: item.Seq, Author: item.Author, Trace: item.Trace}
		payload, err := st.FetchPayload(ev)
		if err != nil {
			// Privacy denial or fetch failure: skip to next candidate.
			st.Filtered()
			continue
		}
		// One decision, one frame: the comment and the limiter-state
		// rewrite (the persisted cadence a replacement BRASS resumes from
		// after failover, §3.5 "Resumption").
		_ = st.Push(brass.PayloadFor(ev, item.Seq, payload), burst.RewriteDelta(
			burst.Header{brass.HdrRateLimiterState: state.limiter.HeaderState()}, nil))
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
	score, _ := strconv.ParseFloat(ev.Meta["score"], 64)
	for _, st := range in.rt.Instance().StreamsForTopic(ev.Topic) {
		state, ok := st.State.(*lvcStream)
		if !ok {
			continue
		}
		// Per-viewer filtering on metadata only — no payload fetched
		// for comments that never surface.
		if score < in.app.MinScore {
			st.Filtered()
			continue
		}
		if ev.Author == uint64(st.Viewer) {
			st.Filtered() // the viewer already sees their own comment locally
			continue
		}
		if state.lang != "" && ev.Meta["lang"] != "" && state.lang != ev.Meta["lang"] {
			st.Filtered()
			continue
		}
		state.buffer.Add(brass.RankedItem{
			Score:  score,
			Time:   in.rt.Now(),
			Seq:    ev.Ref,
			Author: ev.Author,
			Trace:  ev.Trace,
		})
	}
}

func (in *lvcInstance) OnAck(st *brass.Stream, seq uint64) {}
