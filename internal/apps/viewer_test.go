package apps

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// recorder is a Registrar that registers on a WAS and remembers the name of
// every query, mutation and subscription it is handed.
type recorder struct {
	*was.Server
	fields []string
}

func (r *recorder) RegisterQuery(name string, fn was.QueryFunc) {
	r.fields = append(r.fields, "query "+name)
	r.Server.RegisterQuery(name, fn)
}

func (r *recorder) RegisterMutation(name string, fn was.MutationFunc) {
	r.fields = append(r.fields, "mutation "+name)
	r.Server.RegisterMutation(name, fn)
}

func (r *recorder) RegisterSubscription(name string, fn was.SubscriptionFunc) {
	r.fields = append(r.fields, "subscription "+name)
	r.Server.RegisterSubscription(name, fn)
}

// TestUnknownViewerIsAnError: a device's user header is input. No field the
// suite registers panics for a viewer the graph does not know or for the
// system viewer (0); the first is ErrUnknownUser everywhere, and so is the
// second wherever a resolver reads the viewer's place in the graph.
func TestUnknownViewerIsAnError(t *testing.T) {
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 100, MeanFriends: 5, Seed: 1})
	rec := &recorder{Server: was.New(tao.MustNewStore(tao.DefaultConfig(), nil), graph, nil, nil)}
	NewSuite(rec)
	// One expression per field, with the arguments its resolver parses.
	exprs := map[string]string{
		"query videoComments":               "videoComments(videoID: 1)",
		"query mailboxSince":                "mailboxSince(seq: 0)",
		"mutation postComment":              `postComment(videoID: 1, text: "hi")`,
		"mutation reportActive":             "reportActive",
		"mutation setTyping":                `setTyping(threadID: 1, on: "true")`,
		"mutation postStory":                `postStory(content: "hi")`,
		"mutation createThread":             `createThread(members: "1,2")`,
		"mutation sendMessage":              `sendMessage(threadID: 1, text: "hi")`,
		"mutation postFeedComment":          `postFeedComment(postID: 1, text: "hi")`,
		"mutation reactToVideo":             `reactToVideo(videoID: 1, kind: "love")`,
		"mutation notify":                   `notify(user: 1, kind: "mention", text: "hi")`,
		"subscription liveVideoComments":    "liveVideoComments(videoID: 1)",
		"subscription activeStatus":         "activeStatus",
		"subscription typingIndicator":      "typingIndicator(threadID: 1, peer: 2)",
		"subscription storiesTray":          "storiesTray",
		"subscription messenger":            "messenger",
		"subscription feedPostComments":     "feedPostComments(postID: 1)",
		"subscription liveVideoReactions":   "liveVideoReactions(videoID: 1)",
		"subscription websiteNotifications": "websiteNotifications",
	}
	readsGraph := map[string]bool{
		"mutation postComment": true, "mutation postStory": true,
		"subscription activeStatus": true, "subscription storiesTray": true,
	}
	beyond := socialgraph.UserID(graph.NumUsers() + 1)
	for _, field := range rec.fields {
		expr, ok := exprs[field]
		if !ok {
			t.Errorf("%s: no expression for it in this table", field)
			continue
		}
		kind, _, _ := strings.Cut(field, " ")
		for _, viewer := range []socialgraph.UserID{0, beyond} {
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s as viewer %d panicked: %v", field, viewer, p)
					}
				}()
				switch kind {
				case "query":
					_, err = rec.Query(viewer, expr)
				case "mutation":
					_, err = rec.Mutate(viewer, expr)
				case "subscription":
					_, err = rec.ResolveSubscription(viewer, expr)
				}
			}()
			if want := viewer == beyond || readsGraph[field]; errors.Is(err, was.ErrUnknownUser) != want {
				t.Errorf("%s as viewer %d: err = %v, want ErrUnknownUser: %v", field, viewer, err, want)
			}
		}
	}
}

// TestUnknownViewerStreamIsTerminated: a stream opened as a viewer the graph
// does not know, or with a user header that names no user at all, is
// terminated with ErrUnknownUser, and the host serves the next stream. A bad
// header is refused before any resolver runs: feedPostComments never reads
// the graph, so read as the system viewer 0 it would open and see every
// author's comments, blocked ones included.
func TestUnknownViewerStreamIsTerminated(t *testing.T) {
	e := newEnv(t)
	cli := e.dial(t)
	terminated := func(what string, st *burst.ClientStream) {
		t.Helper()
		select {
		case batch := <-bursttest.Events(t, st):
			if d := batch.Deltas[0]; d.Type != burst.DeltaTermination || !strings.Contains(d.Reason, was.ErrUnknownUser.Error()) {
				t.Errorf("%s's stream got %+v, want a termination naming ErrUnknownUser", what, d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s's stream was never terminated", what)
		}
	}
	for _, viewer := range []socialgraph.UserID{0, socialgraph.UserID(e.graph.NumUsers() + 1)} {
		terminated(fmt.Sprintf("viewer %d", viewer), e.subscribe(t, cli, AppActiveStatus, "activeStatus", viewer, nil))
	}
	for _, header := range []string{"", "x", "-1", "0", "18446744073709551616"} {
		terminated(fmt.Sprintf("user header %q", header), e.subscribe(t, cli, AppFeedComments,
			"feedPostComments(postID: 1)", 1, burst.Header{burst.HdrUser: header}))
	}
	e.subscribe(t, cli, AppActiveStatus, "activeStatus", 1, nil)
	waitFor(t, "a known viewer's stream to open", func() bool { return e.host.StreamsOpened.Value() == 1 })
}
