package apps

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"unsafe"

	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// TestPairTopicMatchesSprintf holds the two-id topics to the bytes they had
// when fmt.Sprintf formatted them, at the ends of the id range, and to one
// allocation, the topic.
func TestPairTopicMatchesSprintf(t *testing.T) {
	ids := []uint64{0, 1, math.MaxUint64}
	for _, a := range ids {
		for _, b := range ids {
			if got, want := TypingTopic(a, b), fmt.Sprintf("/TI/%d/%d", a, b); string(got) != want {
				t.Errorf("TypingTopic(%d, %d) = %q, want %q", a, b, got, want)
			}
			if got, want := LVCUserTopic(a, socialgraph.UserID(b)), fmt.Sprintf("/LVC/%d/%d", a, b); string(got) != want {
				t.Errorf("LVCUserTopic(%d, %d) = %q, want %q", a, b, got, want)
			}
		}
	}
	var sink pylon.Topic
	if n := testing.AllocsPerRun(100, func() { sink = pairTopic("/Stories/", math.MaxUint64, math.MaxUint64) }); n != 1 {
		t.Errorf("pairTopic: %v allocations, want 1 (the topic); last %q", n, sink)
	}
}

// topicRecorder is a WAS's Fanout that keeps the topic of every event.
type topicRecorder struct {
	mu     sync.Mutex
	topics []pylon.Topic
}

func (r *topicRecorder) Publish(ev pylon.Event) (int, error) {
	r.mu.Lock()
	r.topics = append(r.topics, ev.Topic)
	r.mu.Unlock()
	return 0, nil
}

// TestFeedTopicIsBuiltOncePerPost races mutations and subscription resolves
// on the same posts and on different ones: every topic that names one post,
// published or resolved, is the one string the table built, and its bytes
// are PostTopic's.
func TestFeedTopicIsBuiltOncePerPost(t *testing.T) {
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 20, MeanFriends: 3, Seed: 1})
	w := was.New(tao.MustNewStore(tao.DefaultConfig(), nil), graph, nil, nil)
	rec := &topicRecorder{}
	w.Fanout = rec
	NewFeedComments(w)

	const workers, rounds = 8, 50
	resolved := make([][]pylon.Topic, workers)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			viewer := socialgraph.UserID(g + 1)
			for i := range rounds {
				// Posts 1-3 are shared by every worker; 100+g is this one's.
				for _, post := range []int{1 + i%3, 100 + g} {
					if _, err := w.Mutate(viewer, fmt.Sprintf(`postFeedComment(postID: %d, text: "c%d")`, post, i)); err != nil {
						t.Error(err)
						return
					}
					topics, err := w.ResolveSubscription(viewer, fmt.Sprintf("feedPostComments(postID: %d)", post))
					if err != nil || len(topics) != 1 || cap(topics) != 1 {
						t.Errorf("resolve post %d: %v (len %d, cap %d), want one topic, cap 1", post, err, len(topics), cap(topics))
						return
					}
					resolved[g] = append(resolved[g], topics[0])
				}
			}
		}()
	}
	wg.Wait()

	all := rec.topics
	for _, r := range resolved {
		all = append(all, r...)
	}
	if want := 2 * 2 * workers * rounds; len(all) != want {
		t.Fatalf("saw %d topics, want %d", len(all), want)
	}
	data := map[pylon.Topic]*byte{}
	for _, topic := range all {
		p, ok := data[topic]
		if !ok {
			data[topic] = unsafe.StringData(string(topic))
			continue
		}
		if p != unsafe.StringData(string(topic)) {
			t.Fatalf("topic %q has two backing strings: built more than once", topic)
		}
	}
	posts := []uint64{1, 2, 3}
	for g := range workers {
		posts = append(posts, 100+uint64(g))
	}
	for _, post := range posts {
		if _, ok := data[PostTopic(post)]; !ok {
			t.Errorf("no topic equals PostTopic(%d) = %q", post, PostTopic(post))
		}
	}
	if len(data) != len(posts) {
		t.Errorf("%d distinct topics, want %d, one per post", len(data), len(posts))
	}
}
