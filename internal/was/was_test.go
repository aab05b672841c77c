package was

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"bladerunner/internal/kvstore"
	"bladerunner/internal/pylon"
	"bladerunner/internal/sim"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
)

var t0 = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)

func newTestWAS(t *testing.T) (*Server, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine(t0)
	store := tao.MustNewStore(tao.DefaultConfig(), eng)
	graph := socialgraph.MustGenerate(socialgraph.Config{Users: 100, MeanFriends: 10, Seed: 1})
	nodes := []*kvstore.Node{
		kvstore.NewNode("a", "us"), kvstore.NewNode("b", "eu"), kvstore.NewNode("c", "ap"),
	}
	pyl := pylon.MustNew(pylon.DefaultConfig(), kvstore.MustNewCluster(nodes, 3))
	return New(store, graph, pyl, eng), eng
}

func TestParseFieldBasics(t *testing.T) {
	cases := []struct {
		in       string
		wantName string
		wantArgs map[string]string
	}{
		{"activeStatus", "activeStatus", map[string]string{}},
		{"noArgs()", "noArgs", map[string]string{}},
		{"liveVideoComments(videoID: 7)", "liveVideoComments", map[string]string{"videoID": "7"}},
		{`postComment(videoID: 7, text: "hi, there")`, "postComment",
			map[string]string{"videoID": "7", "text": "hi, there"}},
		{" spaced ( a : 1 , b : 2 ) ", "spaced", map[string]string{"a": "1", "b": "2"}},
		// What fmt.Sprintf("%q") emits for the comment `6" sub, please`: an
		// escaped quote does not end the string.
		{`postFeedComment(postID: 1, text: "6\" sub, please")`, "postFeedComment",
			map[string]string{"postID": "1", "text": `6" sub, please`}},
		{`f(text: "a:b")`, "f", map[string]string{"text": "a:b"}},
		{`f(text: "x)")`, "f", map[string]string{"text": "x)"}},
		{`f(text: "tab\there\\")`, "f", map[string]string{"text": "tab\there\\"}},
	}
	for _, c := range cases {
		got, err := ParseField(c.in)
		if err != nil {
			t.Errorf("ParseField(%q): %v", c.in, err)
			continue
		}
		if got.Name != c.wantName {
			t.Errorf("ParseField(%q).Name = %q", c.in, got.Name)
		}
		if got.n != len(c.wantArgs) {
			t.Errorf("ParseField(%q) has %d arguments, want %v", c.in, got.n, c.wantArgs)
			continue
		}
		for k, v := range c.wantArgs {
			if s, err := got.StringArg(k); err != nil || s != v {
				t.Errorf("ParseField(%q).StringArg(%q) = %q, %v, want %q", c.in, k, s, err, v)
			}
		}
	}
}

func TestParseFieldErrors(t *testing.T) {
	for _, in := range []string{
		"", "  ", "9bad", "f(", "f(a)", "f(a: 1", "f(a: 1, a: 2)",
		"f(:1)", "bad name(a: 1)", `f(a: "unterminated)`,
		"f(a: 1) trailing)", "f(a: 1 2)", "f(a: 1,)", "f(a: 1, )", "f(,a: 1)", "f(a: )",
		`f(a: "x"y)`, `f(a: "x" "y")`, `f(a: "\")`, `f(a: "bad \q escape")`, "f(a: 1))", "f(a: 1)x",
		"f(a: 1, b: 2, c: 3, d: 4, e: 5, f: 6, g: 7, h: 8, i: 9)",
	} {
		if got, err := ParseField(in); err == nil {
			t.Errorf("ParseField(%q) accepted: %+v", in, got)
		}
	}
}

func TestFieldCallHelpers(t *testing.T) {
	f, err := ParseField(`m(videoID: 42, text: "yo")`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Uint64Arg("videoID")
	if err != nil || n != 42 {
		t.Errorf("Uint64Arg = %d, %v", n, err)
	}
	if _, err := f.Uint64Arg("missing"); err == nil {
		t.Error("missing arg accepted")
	}
	if _, err := f.Uint64Arg("text"); err == nil {
		t.Error("non-numeric accepted")
	}
	s, err := f.StringArg("text")
	if err != nil || s != "yo" {
		t.Errorf("StringArg = %q, %v", s, err)
	}
	if _, err := f.StringArg("missing"); err == nil {
		t.Error("missing string arg accepted")
	}
}

func TestQueryDispatch(t *testing.T) {
	s, _ := newTestWAS(t)
	s.RegisterQuery("friendCount", func(ctx Ctx, call FieldCall) (any, error) {
		uid, err := call.Uint64Arg("user")
		if err != nil {
			return nil, err
		}
		return len(ctx.Srv.Graph.Friends(socialgraph.UserID(uid))), nil
	})
	out, err := s.Query(1, "friendCount(user: 1)")
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if err := json.Unmarshal(out, &n); err != nil {
		t.Fatal(err)
	}
	if n != len(s.Graph.Friends(1)) {
		t.Errorf("friendCount = %d", n)
	}
	if s.Queries.Value() != 1 {
		t.Errorf("Queries = %d", s.Queries.Value())
	}
	if _, err := s.Query(1, "nope"); !errors.Is(err, ErrUnknownField) {
		t.Errorf("unknown query: %v", err)
	}
	if _, err := s.Query(1, "((("); err == nil {
		t.Error("bad expression accepted")
	}
}

func TestMutationDispatchAndTAOWrite(t *testing.T) {
	s, _ := newTestWAS(t)
	s.RegisterMutation("post", func(ctx Ctx, call FieldCall) (any, error) {
		text, err := call.StringArg("text")
		if err != nil {
			return nil, err
		}
		id := ctx.Srv.TAO.ObjectAdd("comment", tao.Props{{"text", text}})
		return uint64(id), nil
	})
	out, err := s.Mutate(3, `post(text: "hello")`)
	if err != nil {
		t.Fatal(err)
	}
	var id uint64
	if err := json.Unmarshal(out, &id); err != nil {
		t.Fatal(err)
	}
	obj, err := s.TAO.ObjectGet(tao.ObjID(id))
	if err != nil {
		t.Fatal(err)
	}
	if obj.Data.Get("text") != "hello" {
		t.Errorf("stored text = %q", obj.Data.Get("text"))
	}
	if s.Mutations.Value() != 1 {
		t.Errorf("Mutations = %d", s.Mutations.Value())
	}
	if _, err := s.Mutate(3, "ghost"); !errors.Is(err, ErrUnknownField) {
		t.Errorf("unknown mutation: %v", err)
	}
}

func TestResolveSubscription(t *testing.T) {
	s, _ := newTestWAS(t)
	s.RegisterSubscription("liveVideoComments", func(ctx Ctx, call FieldCall) ([]pylon.Topic, error) {
		vid, err := call.Uint64Arg("videoID")
		if err != nil {
			return nil, err
		}
		return []pylon.Topic{pylon.Topic(fmt.Sprintf("/LVC/%d", vid))}, nil
	})
	topics, err := s.ResolveSubscription(5, "liveVideoComments(videoID: 9)")
	if err != nil {
		t.Fatal(err)
	}
	if len(topics) != 1 || topics[0] != "/LVC/9" {
		t.Errorf("topics = %v", topics)
	}
	if _, err := s.ResolveSubscription(5, "unknown(x: 1)"); !errors.Is(err, ErrUnknownField) {
		t.Errorf("unknown subscription: %v", err)
	}
}

// TestUnknownViewerIsAnError: a viewer id arrives from a device or over
// ctrl. One beyond the graph is ErrUnknownUser before any resolver runs, and
// Ctx.User refuses the system viewer (0).
func TestUnknownViewerIsAnError(t *testing.T) {
	s, _ := newTestWAS(t)
	me := func(ctx Ctx, call FieldCall) (any, error) {
		u, err := ctx.User()
		return u.ID, err
	}
	s.RegisterQuery("me", me)
	s.RegisterMutation("me", me)
	s.RegisterSubscription("me", func(ctx Ctx, call FieldCall) ([]pylon.Topic, error) {
		_, err := ctx.User()
		return nil, err
	})
	for _, viewer := range []socialgraph.UserID{0, 101, 1 << 63} {
		if _, err := s.Query(viewer, "me"); !errors.Is(err, ErrUnknownUser) {
			t.Errorf("Query as %d: err = %v, want ErrUnknownUser", viewer, err)
		}
		if _, err := s.Mutate(viewer, "me"); !errors.Is(err, ErrUnknownUser) {
			t.Errorf("Mutate as %d: err = %v, want ErrUnknownUser", viewer, err)
		}
		if _, err := s.ResolveSubscription(viewer, "me"); !errors.Is(err, ErrUnknownUser) {
			t.Errorf("ResolveSubscription as %d: err = %v, want ErrUnknownUser", viewer, err)
		}
	}
	if out, err := s.Query(100, "me"); err != nil || string(out) != "100" {
		t.Errorf("Query as the last user = %s, %v", out, err)
	}
}

func TestPrivacyCheck(t *testing.T) {
	s, _ := newTestWAS(t)
	if !s.PrivacyCheck(1, 2) {
		t.Skip("generator blocked 1-2; improbable")
	}
	s.Graph.Block(1, 2)
	if s.PrivacyCheck(1, 2) {
		t.Error("viewer-blocks-author passed")
	}
	// Symmetric: author blocked viewer.
	s.Graph.Block(3, 4)
	if s.PrivacyCheck(4, 3) {
		t.Error("author-blocks-viewer passed")
	}
	if s.PrivacyDenied.Value() != 2 {
		t.Errorf("PrivacyDenied = %d", s.PrivacyDenied.Value())
	}
	// System principals always pass.
	if !s.PrivacyCheck(0, 5) || !s.PrivacyCheck(5, 0) {
		t.Error("system principal denied")
	}
}

func TestFetchPayloadPrivacyAndResolution(t *testing.T) {
	s, _ := newTestWAS(t)
	ref := s.TAO.ObjectAdd("comment", tao.Props{{"text", "nice"}})
	s.RegisterPayload("lvc", func(ctx Ctx, r tao.ObjID, ev pylon.Event) (any, error) {
		obj, err := ctx.Srv.TAO.ObjectGet(r)
		if err != nil {
			return nil, err
		}
		return obj.Data.Get("text"), nil
	})
	ev := pylon.Event{Ref: uint64(ref), Author: 2}
	out, err := s.FetchPayloadIn("", "lvc", 1, ev)
	if err != nil {
		t.Fatal(err)
	}
	var text string
	if err := json.Unmarshal(out, &text); err != nil || text != "nice" {
		t.Errorf("payload = %q err=%v", text, err)
	}
	// Blocked author → denied.
	s.Graph.Block(1, 2)
	if _, err := s.FetchPayloadIn("", "lvc", 1, ev); !errors.Is(err, ErrDenied) {
		t.Errorf("blocked fetch: %v", err)
	}
	// Unknown app.
	if _, err := s.FetchPayloadIn("", "ghost", 1, pylon.Event{}); !errors.Is(err, ErrUnknownField) {
		t.Errorf("unknown app: %v", err)
	}
}

// TestVisibilityChecksTheEventAuthor: the privacy check reads the event's
// Author field and nothing else — a Meta key of that name is the app's own
// business — and an event without an author (a system event) passes.
func TestVisibilityChecksTheEventAuthor(t *testing.T) {
	s, _ := newTestWAS(t)
	s.Graph.Block(1, 12)
	if err := s.CheckEventVisibility(1, pylon.Event{Author: 12}); !errors.Is(err, ErrDenied) {
		t.Errorf("blocked author 12: err = %v, want ErrDenied", err)
	}
	if err := s.CheckEventVisibility(1, pylon.Event{Author: 13, Meta: map[string]string{"author": "12"}}); err != nil {
		t.Errorf("unblocked author 13: %v", err)
	}
	if err := s.CheckEventVisibility(1, pylon.Event{}); err != nil {
		t.Errorf("event without an author: %v", err)
	}
	// An author or viewer the graph does not know is denied, not a panic
	// (FuzzCtrlFrame found an event from the wire that crashed the WAS).
	for _, c := range [][2]socialgraph.UserID{{1, 101}, {101, 1}, {1 << 40, 1 << 41}} {
		if err := s.CheckEventVisibility(c[0], pylon.Event{Author: uint64(c[1])}); !errors.Is(err, ErrDenied) {
			t.Errorf("viewer %d, author %d: err = %v, want ErrDenied", c[0], c[1], err)
		}
	}
}

func TestPublishImmediateAndRanked(t *testing.T) {
	s, eng := newTestWAS(t)
	s.RankDelay = sim.Constant{V: 1790 * time.Millisecond}

	s.Publish(pylon.Event{Topic: "/x"}, false)
	eng.Run()
	if s.PublishesEmitted.Value() != 1 {
		t.Fatalf("immediate publish not emitted")
	}
	if lat := s.PublishLatency.Max(); lat != 0 {
		t.Errorf("unranked latency = %v, want 0 (sim time)", lat)
	}

	s.Publish(pylon.Event{Topic: "/x"}, true)
	if s.PublishesEmitted.Value() != 1 {
		t.Error("ranked publish emitted before rank delay")
	}
	eng.Run()
	if s.PublishesEmitted.Value() != 2 {
		t.Error("ranked publish never emitted")
	}
	if lat := s.PublishLatency.Max(); lat != 1790*time.Millisecond {
		t.Errorf("ranked latency = %v, want 1.79s", lat)
	}
}

func TestQualityScoreProperties(t *testing.T) {
	g := socialgraph.MustGenerate(socialgraph.Config{Users: 50, MeanFriends: 5, Seed: 2})
	u := g.User(1)
	a := QualityScore(u, "hello world")
	b := QualityScore(u, "hello world")
	if a != b {
		t.Error("score not deterministic")
	}
	if a < 0 || a >= 1.0001 {
		t.Errorf("score %v out of range", a)
	}
	celeb := socialgraph.User{ID: 2, Celebrity: true}
	if QualityScore(celeb, "meh") < 0.8 {
		t.Error("celebrity floor not applied")
	}
}

func TestQualityScoreRangeProperty(t *testing.T) {
	f := func(id uint16, text string, celeb bool) bool {
		u := socialgraph.User{ID: socialgraph.UserID(id) + 1, Celebrity: celeb}
		s := QualityScore(u, text)
		return s >= 0 && s <= 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentExecutorStress hammers the executor from many goroutines:
// registrations are done up front; queries, mutations, subscription
// resolution, privacy checks, and payload fetches race freely. Run with
// -race in CI.
func TestConcurrentExecutorStress(t *testing.T) {
	s, _ := newTestWAS(t)
	s.Sched = sim.RealClock{} // timers must actually run concurrently
	s.RegisterQuery("q", func(ctx Ctx, call FieldCall) (any, error) { return 1, nil })
	s.RegisterMutation("m", func(ctx Ctx, call FieldCall) (any, error) {
		id := ctx.Srv.TAO.ObjectAdd("o", nil)
		ctx.Srv.Publish(pylon.Event{Topic: "/stress", Ref: uint64(id)}, false)
		return uint64(id), nil
	})
	s.RegisterSubscription("s", func(ctx Ctx, call FieldCall) ([]pylon.Topic, error) {
		return []pylon.Topic{"/stress"}, nil
	})
	s.RegisterPayload("app", func(ctx Ctx, ref tao.ObjID, ev pylon.Event) (any, error) {
		return "p", nil
	})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			viewer := socialgraph.UserID(g%50 + 1)
			for i := 0; i < 200; i++ {
				switch i % 5 {
				case 0:
					if _, err := s.Query(viewer, "q"); err != nil {
						t.Errorf("query: %v", err)
					}
				case 1:
					if _, err := s.Mutate(viewer, "m"); err != nil {
						t.Errorf("mutate: %v", err)
					}
				case 2:
					if _, err := s.ResolveSubscription(viewer, "s"); err != nil {
						t.Errorf("resolve: %v", err)
					}
				case 3:
					s.PrivacyCheck(viewer, socialgraph.UserID(i%50+1))
				case 4:
					_, _ = s.FetchPayloadIn("", "app", viewer, pylon.Event{Ref: 1})
				}
			}
		}()
	}
	wg.Wait()
	if s.Mutations.Value() != 8*40 {
		t.Errorf("Mutations = %d, want %d", s.Mutations.Value(), 8*40)
	}
	if s.Queries.Value() != 8*40 {
		t.Errorf("Queries = %d", s.Queries.Value())
	}
}

// TestRegisterWhileServing holds what the copy-on-write tables promise:
// registration is legal at any time, races no call (run with -race), and a
// resolver registered after the first call is found by the next one.
func TestRegisterWhileServing(t *testing.T) {
	s, _ := newTestWAS(t)
	s.RegisterMutation("m0", func(ctx Ctx, call FieldCall) (any, error) { return 0, nil })
	s.RegisterPayload("app", func(ctx Ctx, ref tao.ObjID, ev pylon.Event) (any, error) {
		_, err := ctx.Reader().ObjectGet(ref) // reads the readers table too
		return "p", err
	})
	ref := uint64(s.TAO.ObjectAdd("o", nil))
	if _, err := s.MutateIn("eu", 1, "m0"); err != nil {
		t.Fatal(err)
	}

	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			s.RegisterMutation(fmt.Sprintf("m%d", i), func(ctx Ctx, call FieldCall) (any, error) { return i, nil })
			s.RegisterReader(fmt.Sprintf("region-%d", i), s.TAO)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := s.MutateIn("eu", 1, "m0"); err != nil {
				t.Errorf("mutate: %v", err)
			}
			if _, err := s.ResolvePayloadIn("region-1", "app", pylon.Event{Ref: ref}); err != nil {
				t.Errorf("resolve: %v", err)
			}
		}
	}()
	wg.Wait()
	for _, name := range []string{"m1", fmt.Sprintf("m%d", rounds)} {
		if _, err := s.Mutate(1, name); err != nil {
			t.Errorf("a mutation registered while serving is not found: %v", err)
		}
	}
	if len(s.tables.Load().readers) != rounds {
		t.Errorf("%d readers registered, want %d: a concurrent registration was lost", len(s.tables.Load().readers), rounds)
	}
}

// FuzzParseField: the expression arrives from a device, and over ctrl's
// was.mutate. The scanner never panics; what it accepts has a valid name and
// valid, distinct argument names; and a value written with %q — arbitrary
// bytes — reads back unchanged through StringArg.
func FuzzParseField(f *testing.F) {
	for _, s := range []string{
		`postFeedComment(postID: 1, text: "6\" sub, please")`, "f(a: 1) trailing)", // the two parser bugs
		"activeStatus", "f()", ` spaced ( a : 1 , b : 2 ) `, `f(text: "a:b", t2: "x)")`, "f(a: 1,)", "f(a: 1, a: 2)",
		`f(a: "unterminated)`, `f(a: "\`, "f(a: 1, b: 2, c: 3, d: 4, e: 5, f: 6, g: 7, h: 8, i: 9)", "9bad", "é(a: 1)",
	} {
		f.Add(s, s)
	}
	validName := func(s string) bool { p := scanner{s: s}; return s != "" && p.name() == s }
	f.Fuzz(func(t *testing.T, expr, v string) {
		if call, err := ParseField(expr); err == nil {
			if !validName(call.Name) {
				t.Fatalf("ParseField(%q) accepted the name %q", expr, call.Name)
			}
			for i, a := range call.args[:call.n] {
				if got, _ := call.arg(a.name); !validName(a.name) || got != a.value {
					t.Fatalf("ParseField(%q): argument %d is %q, invalid or a duplicate", expr, i, a.name)
				}
			}
		}
		call, err := ParseField(fmt.Sprintf("f(k: %q)", v))
		if err != nil {
			t.Fatalf("%q as a quoted value: %v", v, err)
		}
		if got, err := call.StringArg("k"); err != nil || got != v || call.n != 1 {
			t.Fatalf("%q as a quoted value reads back %q, %v (%d arguments)", v, got, err, call.n)
		}
	})
}
