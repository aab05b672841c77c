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
type FeedComments struct {
	posts *topicTable[uint64] // post → PostTopic
}

// PostTopic returns the Pylon topic for a post's comments.
func PostTopic(postID uint64) pylon.Topic {
	return idTopic("/Post/", postID)
}

// NewFeedComments registers the WAS half and returns the application.
func NewFeedComments(w Registrar) *FeedComments {
	a := &FeedComments{posts: newTopicTable(PostTopic)}

	w.RegisterMutation("postFeedComment", func(ctx was.Ctx, call was.FieldCall) ([]byte, error) {
		postID, err := call.Uint64Arg("postID")
		if err != nil {
			return nil, err
		}
		text, err := call.StringArg("text")
		if err != nil {
			return nil, err
		}
		ref := ctx.Srv.TAO.ObjectAdd("comment", uint64(ctx.Viewer), postID, 0, tao.Props{{"text", text}})
		ctx.Publish(pylon.Event{Topic: a.posts.topic(postID), Ref: uint64(ref), Author: uint64(ctx.Viewer)}, false)
		return strconv.AppendUint(nil, uint64(ref), 10), nil
	})

	w.RegisterSubscription("feedPostComments", func(ctx was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		postID, err := call.Uint64Arg("postID")
		if err != nil {
			return nil, err
		}
		return a.posts.list(postID), nil
	})

	w.RegisterPayload(AppFeedComments, func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) ([]byte, error) {
		obj, err := ctx.Reader().ObjectGet(ref)
		if err != nil {
			return nil, err
		}
		return CommentPayload{CommentID: uint64(ref), VideoID: obj.Parent, Author: obj.Author,
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
		if p, ok := st.Fetch(ev, ev.ID); ok {
			_ = st.Push(nil, p)
		}
	}
}
