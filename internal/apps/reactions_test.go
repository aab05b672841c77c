package apps

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"bladerunner/internal/burst/bursttest"
	"bladerunner/internal/socialgraph"
)

func TestReactionsAggregation(t *testing.T) {
	e := newEnv(t)
	e.suite.Reactions.FlushInterval = 30 * time.Millisecond
	cli := e.dial(t)
	viewer := socialgraph.UserID(40)
	st := e.subscribe(t, cli, AppReactions, "liveVideoReactions(videoID: 77)", viewer, nil)
	waitFor(t, "sub", func() bool {
		return len(e.pylon.Subscribers(ReactionsTopic(77))) == 1
	})

	// A burst of 30 reactions of mixed kinds.
	for i := 0; i < 30; i++ {
		kind := []string{"like", "love", "wow"}[i%3]
		author := socialgraph.UserID(50 + i)
		if _, err := e.was.Mutate(author,
			fmt.Sprintf(`reactToVideo(videoID: 77, kind: "%s")`, kind)); err != nil {
			t.Fatal(err)
		}
	}

	// The device receives aggregated counters, not 30 events.
	total := map[string]int64{}
	batches := 0
	deadline := time.After(5 * time.Second)
	for sum(total) < 30 {
		select {
		case delta := <-bursttest.Events(t, st):
			for _, d := range delta.Deltas {
				var agg ReactionAggregate
				if err := json.Unmarshal(d.Payload, &agg); err != nil {
					t.Fatal(err)
				}
				if agg.VideoID != 77 {
					t.Errorf("video = %d", agg.VideoID)
				}
				batches++
				for k, v := range agg.Counts {
					total[k] += v
				}
			}
		case <-deadline:
			t.Fatalf("aggregates incomplete: %v (batches=%d)", total, batches)
		}
	}
	if total["like"] != 10 || total["love"] != 10 || total["wow"] != 10 {
		t.Errorf("counts = %v", total)
	}
	if batches >= 30 {
		t.Errorf("received %d batches for 30 reactions — not aggregated", batches)
	}
}

func sum(m map[string]int64) int64 {
	var t int64
	for _, v := range m {
		t += v
	}
	return t
}

func TestReactionsRejectUnknownKind(t *testing.T) {
	e := newEnv(t)
	if _, err := e.was.Mutate(1, `reactToVideo(videoID: 1, kind: "meh")`); err == nil {
		t.Error("unknown reaction kind accepted")
	}
}

func TestReactionsNoFlushWhenIdle(t *testing.T) {
	e := newEnv(t)
	e.suite.Reactions.FlushInterval = 10 * time.Millisecond
	cli := e.dial(t)
	st := e.subscribe(t, cli, AppReactions, "liveVideoReactions(videoID: 78)", 41, nil)
	waitFor(t, "sub", func() bool {
		return len(e.pylon.Subscribers(ReactionsTopic(78))) == 1
	})
	select {
	case b := <-bursttest.Events(t, st):
		t.Errorf("idle stream pushed %+v", b.Deltas)
	case <-time.After(100 * time.Millisecond):
	}
}
