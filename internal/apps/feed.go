package apps

import (
	"strconv"

	"bladerunner/internal/brass"
	"bladerunner/internal/pylon"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// FeedComments is the NewsFeedPostComments application: live comments on a
// News Feed post the user is currently focused on. Unlike live videos,
// posts have moderate comment rates, so the BRASS pushes each passing
// comment immediately (after the WAS privacy check) without ranking — the
// interesting property here is the rapidly changing focus: a user scrolling
// their feed cancels and opens these streams constantly (§1 challenge 2).
type FeedComments struct{}

// PostTopic returns the Pylon topic for a post's comments.
func PostTopic(postID uint64) pylon.Topic {
	return idTopic("/Post/", postID)
}

// NewFeedComments registers the WAS half and returns the application.
func NewFeedComments(w Registrar) *FeedComments {
	a := &FeedComments{}

	w.RegisterMutation("postFeedComment", func(ctx was.Ctx, call was.FieldCall) (any, error) {
		postID, err := call.Uint64Arg("postID")
		if err != nil {
			return nil, err
		}
		text, err := call.StringArg("text")
		if err != nil {
			return nil, err
		}
		ref := ctx.Srv.TAO.ObjectAdd("comment", tao.Props{{"text", text},
			{"author", strconv.FormatUint(uint64(ctx.Viewer), 10)}, {"post", strconv.FormatUint(postID, 10)}})
		ctx.Srv.TAO.AssocAdd(tao.ObjID(postID), "post_comment", ref, ctx.Now, "")
		ctx.Publish(pylon.Event{Topic: PostTopic(postID), Ref: uint64(ref), Author: uint64(ctx.Viewer)}, false)
		return uint64(ref), nil
	})

	w.RegisterSubscription("feedPostComments", func(ctx was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		postID, err := call.Uint64Arg("postID")
		if err != nil {
			return nil, err
		}
		return []pylon.Topic{PostTopic(postID)}, nil
	})

	w.RegisterPayload(AppFeedComments, func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) ([]byte, error) {
		obj, err := ctx.Reader().ObjectGet(ref)
		if err != nil {
			return nil, err
		}
		author, _ := strconv.ParseUint(obj.Data.Get("author"), 10, 64)
		post, _ := strconv.ParseUint(obj.Data.Get("post"), 10, 64)
		return CommentPayload{CommentID: uint64(ref), VideoID: post, Author: author,
			Text: obj.Data.Get("text")}.AppendJSON(nil), nil
	})
	return a
}

// Name implements brass.Application.
func (a *FeedComments) Name() string { return AppFeedComments }

type feedInstance struct {
	app *FeedComments
	rt  *brass.Runtime
}

// NewInstance implements brass.Application.
func (a *FeedComments) NewInstance(rt *brass.Runtime) brass.AppInstance {
	return &feedInstance{app: a, rt: rt}
}

func (in *feedInstance) OnStreamOpen(st *brass.Stream) error {
	_, err := openTopics(in.rt, st)
	return err
}

func (in *feedInstance) OnStreamClose(st *brass.Stream, reason string) {}

func (in *feedInstance) OnEvent(ev pylon.Event) {
	for _, st := range in.rt.Instance().StreamsForTopic(ev.Topic) {
		// Own comments are already rendered locally.
		if ev.Author == uint64(st.Viewer) {
			st.Filtered()
			continue
		}
		payload, err := st.FetchPayload(ev)
		if err != nil {
			st.Filtered()
			continue
		}
		_ = st.PushPayload(ev, ev.ID, payload)
	}
}
