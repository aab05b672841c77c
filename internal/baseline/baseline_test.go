package baseline

import (
	"testing"
	"time"

	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

var t0 = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

func newWASEnv(t *testing.T, eng *sim.Engine) *was.Server {
	t.Helper()
	nodes := []*kvstore.Node{
		kvstore.NewNode("a", "us"), kvstore.NewNode("b", "eu"), kvstore.NewNode("c", "ap"),
	}
	pyl := pylon.MustNew(pylon.DefaultConfig(), kvstore.MustNewCluster(nodes, 3))
	store := tao.MustNewStore(tao.DefaultConfig(), eng)
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 20, MeanFriends: 3, Seed: 1})
	return was.New(store, graph, pyl, eng)
}

func TestClientPollerEmptyPolls(t *testing.T) {
	eng := sim.NewEngine(t0)
	w := newWASEnv(t, eng)
	val := "v0"
	w.RegisterQuery("data", func(ctx was.Ctx, call was.FieldCall) (any, error) {
		return val, nil
	})
	var seen []string
	p := &ClientPoller{
		WAS: w, Viewer: 1, Query: "data", Interval: time.Second, Sched: eng,
		OnNewData: func(b []byte) { seen = append(seen, string(b)) },
	}
	p.Start()
	// 5 polls of unchanged data, then a change, then 4 more.
	eng.RunUntil(eng.Now().Add(5 * time.Second))
	val = "v1"
	eng.RunUntil(eng.Now().Add(5 * time.Second))
	p.Stop()
	eng.Run()

	if p.Polls.Value() != 10 {
		t.Errorf("Polls = %d, want 10", p.Polls.Value())
	}
	// First poll sees v0 (new), poll 6 sees v1 (new): 8 empty.
	if p.EmptyPolls.Value() != 8 {
		t.Errorf("EmptyPolls = %d, want 8", p.EmptyPolls.Value())
	}
	if got := float64(p.EmptyPolls.Value()) / float64(p.Polls.Value()); got != 0.8 {
		t.Errorf("empty poll rate = %v, want 0.8 (the paper's number)", got)
	}
	if len(seen) != 2 || seen[1] != `"v1"` {
		t.Errorf("seen = %v", seen)
	}
	if p.BytesDown.Value() == 0 {
		t.Error("no last-mile bytes counted")
	}
}

func TestClientPollerStopIsFinal(t *testing.T) {
	eng := sim.NewEngine(t0)
	w := newWASEnv(t, eng)
	w.RegisterQuery("d", func(was.Ctx, was.FieldCall) (any, error) { return 1, nil })
	p := &ClientPoller{WAS: w, Viewer: 1, Query: "d", Interval: time.Second, Sched: eng}
	p.Start()
	eng.RunUntil(eng.Now().Add(3 * time.Second))
	p.Stop()
	before := p.Polls.Value()
	eng.RunUntil(eng.Now().Add(10 * time.Second))
	if p.Polls.Value() != before {
		t.Error("poller kept polling after Stop")
	}
}
