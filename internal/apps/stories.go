package apps

import (
	"encoding/json"
	"sort"
	"strconv"

	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/pylon"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// Stories keeps each device's stories tray up to date (paper §3.4).
// Stories are grouped into per-author "containers"; the device displays
// the N highest-ranked containers of the user's friends. The BRASS manages
// what is displayed: it pushes (i) new stories for displayed containers,
// (ii) containers that ranked into the top N, and (iii) container deletion
// requests — so the device needs only one initial poll ever.
type Stories struct {
	// TraySize is the number of containers a device displays (paper: n).
	TraySize int
}

// StoriesTopic returns the Pylon topic for one author's stories.
func StoriesTopic(author uint64) pylon.Topic {
	return idTopic("/Stories/", author)
}

// StoryDelta is the device-facing tray operation.
type StoryDelta struct {
	Op      string  `json:"op"` // "container_add", "container_remove", "story_add"
	Author  uint64  `json:"author"`
	StoryID uint64  `json:"story_id,omitempty"`
	Content string  `json:"content,omitempty"`
	Rank    float64 `json:"rank,omitempty"`
}

// NewStories registers the WAS half and returns the application.
func NewStories(w Registrar) *Stories {
	a := &Stories{TraySize: 3}

	w.RegisterMutation("postStory", func(ctx was.Ctx, call was.FieldCall) (any, error) {
		content, err := call.StringArg("content")
		if err != nil {
			return nil, err
		}
		author, err := ctx.User()
		if err != nil {
			return nil, err
		}
		score := was.QualityScore(author, content)
		ref := ctx.Srv.TAO.ObjectAdd("story", tao.Props{
			{"content", content},
			{"author", strconv.FormatUint(uint64(author.ID), 10)},
			{"score", strconv.FormatFloat(score, 'f', 4, 64)},
		})
		ctx.Srv.TAO.AssocAdd(tao.ObjID(author.ID), "user_story", ref, ctx.Now, "")
		ctx.Publish(pylon.Event{
			Topic:  StoriesTopic(uint64(author.ID)),
			Ref:    uint64(ref),
			Author: uint64(author.ID),
			Meta:   map[string]string{"score": strconv.FormatFloat(score, 'f', 4, 64)},
		}, false)
		return uint64(ref), nil
	})

	w.RegisterSubscription("storiesTray", func(ctx was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		me, err := ctx.User()
		if err != nil {
			return nil, err
		}
		friends := ctx.Srv.Graph.Friends(me.ID)
		topics := make([]pylon.Topic, len(friends))
		for i, f := range friends {
			topics[i] = StoriesTopic(uint64(f))
		}
		return topics, nil
	})

	w.RegisterPayload(AppStories, func(ctx was.Ctx, ref tao.ObjID, ev pylon.Event) (any, error) {
		obj, err := ctx.Reader().ObjectGet(ref)
		if err != nil {
			return nil, err
		}
		author, _ := strconv.ParseUint(obj.Data.Get("author"), 10, 64)
		score, _ := strconv.ParseFloat(obj.Data.Get("score"), 64)
		return StoryDelta{Op: "story_add", Author: author, StoryID: uint64(ref),
			Content: obj.Data.Get("content"), Rank: score}, nil
	})
	return a
}

// Name implements brass.Application.
func (a *Stories) Name() string { return AppStories }

type storyContainer struct {
	author uint64
	rank   float64 // best score seen
}

type storiesStream struct {
	containers map[uint64]*storyContainer // author → container state
	displayed  map[uint64]bool            // containers on the device
}

type storiesInstance struct {
	app *Stories
	rt  *brass.Runtime
}

// NewInstance implements brass.Application.
func (a *Stories) NewInstance(rt *brass.Runtime) brass.AppInstance {
	return &storiesInstance{app: a, rt: rt}
}

func (in *storiesInstance) OnStreamOpen(st *brass.Stream) error {
	if _, err := openTopics(in.rt, st); err != nil {
		return err
	}
	st.State = &storiesStream{
		containers: make(map[uint64]*storyContainer),
		displayed:  make(map[uint64]bool),
	}
	return nil
}

func (in *storiesInstance) OnStreamClose(st *brass.Stream, reason string) { st.State = nil }

// OnEvent privacy-checks the story first: a story the viewer may not see
// does not rank its author's container into the tray either.
func (in *storiesInstance) OnEvent(ev pylon.Event) {
	score, _ := strconv.ParseFloat(ev.Meta["score"], 64)
	for _, st := range in.rt.Instance().StreamsForTopic(ev.Topic) {
		state, ok := st.State.(*storiesStream)
		if !ok {
			continue
		}
		payload, err := st.FetchPayload(ev)
		if err != nil {
			st.Filtered()
			continue
		}
		c := state.containers[ev.Author]
		if c == nil {
			c = &storyContainer{author: ev.Author}
			state.containers[ev.Author] = c
		}
		if score > c.rank {
			c.rank = score
		}
		in.reconcile(st, state, ev, payload)
	}
}

// reconcile recomputes the top-N containers and pushes the diff plus the
// new story when its container is displayed. The BRASS — not the device —
// decides what the tray shows.
func (in *storiesInstance) reconcile(st *brass.Stream, state *storiesStream, ev pylon.Event, payload []byte) {
	ranked := make([]*storyContainer, 0, len(state.containers))
	for _, c := range state.containers {
		ranked = append(ranked, c)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].rank != ranked[j].rank {
			return ranked[i].rank > ranked[j].rank
		}
		return ranked[i].author < ranked[j].author
	})
	top := make(map[uint64]bool, in.app.traySize())
	for _, c := range ranked[:min(len(ranked), in.app.traySize())] {
		top[c.author] = true
	}

	var batch []burst.Delta
	// Containers that fell out of the tray.
	for author := range state.displayed {
		if !top[author] {
			delete(state.displayed, author)
			b, _ := json.Marshal(StoryDelta{Op: "container_remove", Author: author})
			batch = append(batch, burst.PayloadDelta(0, b))
		}
	}
	// Containers that ranked in.
	for author := range top {
		if !state.displayed[author] {
			state.displayed[author] = true
			b, _ := json.Marshal(StoryDelta{Op: "container_add", Author: author,
				Rank: state.containers[author].rank})
			batch = append(batch, burst.PayloadDelta(0, b))
		}
	}
	// The new story itself, if its container is displayed.
	if state.displayed[ev.Author] {
		batch = append(batch, brass.PayloadFor(ev, ev.ID, payload))
	} else {
		st.Filtered()
	}
	_ = st.Push(batch...)
}

// traySize returns the configured tray size with a safe floor.
func (a *Stories) traySize() int {
	if a.TraySize <= 0 {
		return 3
	}
	return a.TraySize
}

func (in *storiesInstance) OnAck(st *brass.Stream, seq uint64) {}
