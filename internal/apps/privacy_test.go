package apps

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/burst/bursttest"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/was"
)

// namesAuthor reports whether a device payload carries the author's action:
// a comment, message or story by them, their status or typing state, a
// notification they caused — or a reaction aggregate that counts theirs.
func namesAuthor(p []byte, author socialgraph.UserID) bool {
	var m map[string]any
	if json.Unmarshal(p, &m) != nil {
		return false
	}
	for _, k := range []string{"author", "user", "actor"} {
		if m[k] == float64(author) {
			return true
		}
	}
	counts, _ := m["counts"].(map[string]any)
	return len(counts) > 0
}

// TestEveryAppChecksPrivacyBeforeDelivery holds the invariant "privacy is
// checked before every delivery" for all eight applications, by one rule: a
// viewer who blocked the author and one who did not both follow what the
// author does, the author acts, and only the second viewer receives a payload
// naming the author — whether the app pushes the event, batches it on a
// timer, ranks it into a tray, aggregates it, or repairs a gap from its
// backend.
func TestEveryAppChecksPrivacyBeforeDelivery(t *testing.T) {
	for _, tc := range []struct {
		app string
		sub func(author socialgraph.UserID) string
		act func(e *env, author socialgraph.UserID, viewers [2]socialgraph.UserID) error
	}{
		{AppLiveComments, fixed("liveVideoComments(videoID: 77)"), func(e *env, a socialgraph.UserID, _ [2]socialgraph.UserID) error {
			for i := 0; ; i++ { // a comment that clears the quality floor
				if text := fmt.Sprintf("comment %d", i); was.QualityScore(e.graph.User(a), text) >= 0.5 {
					return mutate(e, a, `postComment(videoID: 77, text: %q)`, text)
				}
			}
		}},
		{AppActiveStatus, fixed("activeStatus"), func(e *env, a socialgraph.UserID, _ [2]socialgraph.UserID) error {
			return mutate(e, a, "reportActive")
		}},
		{AppTyping, func(a socialgraph.UserID) string { return fmt.Sprintf("typingIndicator(threadID: 5, peer: %d)", a) },
			func(e *env, a socialgraph.UserID, _ [2]socialgraph.UserID) error {
				return mutate(e, a, `setTyping(threadID: 5, on: "true")`)
			}},
		{AppStories, fixed("storiesTray"), func(e *env, a socialgraph.UserID, _ [2]socialgraph.UserID) error {
			return mutate(e, a, `postStory(content: "a day at the lake")`)
		}},
		// Two messages: the blocked member's first is denied on the live
		// path, the second finds a gap and repairs it from the mailbox.
		{AppMessenger, fixed("messenger"), func(e *env, a socialgraph.UserID, v [2]socialgraph.UserID) error {
			if err := mutate(e, a, `createThread(members: "%d,%d,%d")`, a, v[0], v[1]); err != nil {
				return err
			}
			if err := mutate(e, a, `sendMessage(threadID: 1, text: "one")`); err != nil {
				return err
			}
			return mutate(e, a, `sendMessage(threadID: 1, text: "two")`)
		}},
		{AppFeedComments, fixed("feedPostComments(postID: 88)"), func(e *env, a socialgraph.UserID, _ [2]socialgraph.UserID) error {
			return mutate(e, a, `postFeedComment(postID: 88, text: "first")`)
		}},
		{AppReactions, fixed("liveVideoReactions(videoID: 99)"), func(e *env, a socialgraph.UserID, _ [2]socialgraph.UserID) error {
			return mutate(e, a, `reactToVideo(videoID: 99, kind: "love")`)
		}},
		{AppNotifications, fixed("websiteNotifications"), func(e *env, a socialgraph.UserID, v [2]socialgraph.UserID) error {
			for _, to := range v {
				if err := mutate(e, a, `notify(user: %d, kind: "mention", text: "hi")`, to); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		t.Run(tc.app, func(t *testing.T) {
			e := newEnv(t)
			e.suite.Reactions.FlushInterval = 10 * time.Millisecond
			// The author's friends follow their status and stories; one
			// of them blocked the author.
			var author socialgraph.UserID
			for id := socialgraph.UserID(1); author == 0; id++ {
				if len(e.graph.Friends(id)) >= 2 {
					author = id
				}
			}
			viewers := [2]socialgraph.UserID{e.graph.Friends(author)[0], e.graph.Friends(author)[1]}
			blocked, allowed := viewers[0], viewers[1]
			e.graph.Block(blocked, author)
			cli := e.dial(t)
			blockedSt := e.subscribe(t, cli, tc.app, tc.sub(author), blocked, nil)
			allowedSt := e.subscribe(t, cli, tc.app, tc.sub(author), allowed, nil)
			waitFor(t, "both streams open", func() bool { return e.host.StreamsOpened.Value() == 2 })

			if err := tc.act(e, author, viewers); err != nil {
				t.Fatal(err)
			}
			deadline := time.After(5 * time.Second)
			for got := false; !got; {
				select {
				case rc := <-bursttest.Events(t, allowedSt):
					for _, d := range rc.Deltas {
						got = got || d.Type == burst.DeltaPayload && namesAuthor(d.Payload, author)
					}
				case <-deadline:
					t.Fatalf("the viewer who did not block %d never received a payload naming them", author)
				}
			}
			// The blocked viewer's stream sits on the same host and timers:
			// anything it was going to be sent has been sent well within this.
			e.host.Quiesce()
			window := time.After(150 * time.Millisecond)
			for {
				select {
				case rc := <-bursttest.Events(t, blockedSt):
					for _, d := range rc.Deltas {
						if d.Type == burst.DeltaPayload && namesAuthor(d.Payload, author) {
							t.Fatalf("the viewer who blocked %d received %s", author, d.Payload)
						}
					}
				case <-window:
					return
				}
			}
		})
	}
}

func fixed(expr string) func(socialgraph.UserID) string {
	return func(socialgraph.UserID) string { return expr }
}

func mutate(e *env, as socialgraph.UserID, format string, args ...any) error {
	_, err := e.was.Mutate(as, fmt.Sprintf(format, args...))
	return err
}
