package lint_test

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"bladerunner/internal/lint"
)

// The loader is shared across tests: it memoizes type-checked packages (and
// the source-imported standard library), so each fixture load after the
// first is incremental.
var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

func testLoader(tb testing.TB) *lint.Loader {
	tb.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = lint.NewLoader(".")
	})
	if loaderErr != nil {
		tb.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// expectation is one `// want `+"`regex`"+“ comment in a fixture file: the
// line it sits on must produce a diagnostic matching the regex (against
// "rule: message"), and every diagnostic must be claimed by some want.
type expectation struct {
	file    string
	line    int
	pattern string
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("// want `(.*)`\\s*$")

func collectWants(t *testing.T, l *lint.Loader, pkgs []*lint.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := l.Fset.Position(c.Pos())
					wants = append(wants, &expectation{
						file:    pos.Filename,
						line:    pos.Line,
						pattern: m[1],
						re:      re,
					})
				}
			}
		}
	}
	return wants
}

// runFixture loads one testdata fixture package, runs the given rules over
// it, and checks the diagnostics against the fixture's want comments.
func runFixture(t *testing.T, name string, rules ...lint.Rule) {
	t.Helper()
	l := testLoader(t)
	pkgs, err := l.Load("internal/lint/testdata/src/" + name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	checkFixture(t, l, pkgs, rules...)
}

// checkFixture runs the rules over pkgs and checks the diagnostics against
// their want comments. It also asserts that every suppression inside them
// absorbed a diagnostic — a stale allow in a fixture means the rule
// regressed.
func checkFixture(t *testing.T, l *lint.Loader, pkgs []*lint.Package, rules ...lint.Rule) {
	t.Helper()
	r := lint.NewRunner(l, rules...)
	diags := r.Run(pkgs)
	wants := collectWants(t, l, pkgs)

	for _, d := range diags {
		got := d.Rule + ": " + d.Message
		claimed := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(got) {
				w.matched = true
				claimed = true
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic at %s: %s", d.Pos, got)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching `%s`", w.file, w.line, w.pattern)
		}
	}
	for _, s := range r.Suppressions() {
		if !s.Used {
			t.Errorf("%s:%d: suppression of %s absorbed nothing (rule regressed?)", s.File, s.Line, s.Rule)
		}
	}
}

func TestNoDirectTimeFixture(t *testing.T) {
	l := testLoader(t)
	runFixture(t, "timeuse", &lint.NoDirectTime{ModPath: l.ModPath})
}

func TestNoLockAcrossBlockFixture(t *testing.T) {
	l := testLoader(t)
	runFixture(t, "lockblock", &lint.NoLockAcrossBlock{ModPath: l.ModPath})
}

func TestSpanMustEndFixture(t *testing.T) {
	l := testLoader(t)
	runFixture(t, "spanend", &lint.SpanMustEnd{ModPath: l.ModPath})
}

func TestCountedShedFixture(t *testing.T) {
	l := testLoader(t)
	runFixture(t, "countedshed", &lint.CountedShed{ModPath: l.ModPath})
}

func TestHotPathAllocFixture(t *testing.T) {
	runFixture(t, "hotpath", &lint.HotPathAlloc{})
}

// TestTestOnlyExportFixture covers test-only-export over a three-package
// tree: lib's exports that only lib_test.go calls are reported, unless
// allowed — functions, methods, and package-scope vars, consts (one of an
// iota group) and types alike; a call from app, a method value, a generic
// instantiation, an interface app mentions and fmt.Stringer each count as a
// caller, and app's reading a var, a const and a type as a use; and
// neither app nor orphan, which no non-test package imports, is judged.
// Linting lib alone judges it against the whole tree all the same.
func TestTestOnlyExportFixture(t *testing.T) {
	const root = "internal/lint/testdata/src/testonlyexport"
	l := testLoader(t)
	pkgs, err := l.Load(root + "/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("got %d packages, want app, lib and orphan", len(pkgs))
	}
	checkFixture(t, l, pkgs, &lint.TestOnlyExport{Scope: root + "/..."})

	lib, err := l.Load(root + "/lib")
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, l, lib, &lint.TestOnlyExport{Scope: root + "/..."})
}

// TestLockChainFixture covers the interprocedural upgrade of
// no-lock-across-block: blocking reached through one or more call hops
// (including interface dispatch) while a lock is held.
func TestLockChainFixture(t *testing.T) {
	l := testLoader(t)
	runFixture(t, "lockchain", &lint.NoLockAcrossBlock{ModPath: l.ModPath})
}

// TestMalformedSuppressions checks directive validation: a wrong verb, an
// unknown rule, a missing reason and each of two misplaced //brlint:hotpath
// directives produce a "brlint" diagnostic, and the reason-less allow does
// not suppress the violation under it.
func TestMalformedSuppressions(t *testing.T) {
	l := testLoader(t)
	pkgs, err := l.Load("internal/lint/testdata/src/badallow")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := lint.NewRunner(l).Run(pkgs)

	wants := []struct {
		label, substr string
		n             int
	}{
		{"malformed", "malformed brlint directive", 1},
		{"unknown", "unknown rule no-such-rule", 1},
		{"no reason", "needs a reason", 1},
		{"unsuppressed", "time.Now reads the wall clock", 1},
		// One blank-line-detached, one inside a function body.
		{"misplaced hotpath", "//brlint:hotpath gates nothing here", 2},
	}
	total := 0
	for _, w := range wants {
		total += w.n
		got := 0
		for _, d := range diags {
			if strings.Contains(d.Message, w.substr) {
				got++
			}
		}
		if got != w.n {
			t.Errorf("got %d %s diagnostics (substring %q), want %d; got %v", got, w.label, w.substr, w.n, diags)
		}
	}
	if len(diags) != total {
		t.Errorf("got %d diagnostics, want %d: %v", len(diags), total, diags)
	}
}

// TestSuppressionsAudit runs the full rule set across every fixture and
// checks the audit surface behind `brlint -suppressions`: exactly one
// well-formed suppression per rule, each actually used.
func TestSuppressionsAudit(t *testing.T) {
	l := testLoader(t)
	fixtures := []string{"timeuse", "lockblock", "spanend", "countedshed", "hotpath", "lockchain"}
	var pkgs []*lint.Package
	for _, fx := range fixtures {
		p, err := l.Load("internal/lint/testdata/src/" + fx)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", fx, err)
		}
		pkgs = append(pkgs, p...)
	}
	r := lint.NewRunner(l)
	r.Run(pkgs)

	sups := r.Suppressions()
	if len(sups) != len(fixtures) {
		t.Fatalf("got %d suppressions, want %d: %v", len(sups), len(fixtures), sups)
	}
	byRule := map[string]int{}
	for _, s := range sups {
		byRule[s.Rule]++
		if !s.Used {
			t.Errorf("%s:%d: suppression of %s is stale", s.File, s.Line, s.Rule)
		}
		if s.Reason == "" {
			t.Errorf("%s:%d: suppression of %s has an empty reason", s.File, s.Line, s.Rule)
		}
	}
	// One audited allow per fixture; the lockblock and lockchain fixtures
	// both carry one for no-lock-across-block (same-function and
	// call-chain halves of the rule).
	wantByRule := map[string]int{
		"no-direct-time":       1,
		"no-lock-across-block": 2,
		"span-must-end":        1,
		"counted-shed":         1,
		"hot-path-alloc":       1,
	}
	for rule, want := range wantByRule {
		if byRule[rule] != want {
			t.Errorf("rule %s: %d suppressions in fixtures, want %d", rule, byRule[rule], want)
		}
	}
}

// TestSuppressionCensus pins the module's live //brlint:allow comments, by
// rule and file: each is invariant debt with a reason (ROADMAP item 12(1)),
// so adding or deleting one means editing this list in the same change.
// `brlint -suppressions` prints them with their reasons.
func TestSuppressionCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	census := map[string]map[string]int{
		"hot-path-alloc": {
			"internal/brass/instance.go":   1,
			"internal/durlog/durlog.go":    3,
			"internal/megadevice/apply.go": 1,
			"internal/pylon/pylon.go":      2,
			"internal/trace/trace.go":      3,
		},
		"counted-shed":         {"cmd/brnode/launcher.go": 1},
		"no-lock-across-block": {"internal/burst/client.go": 1},
		// Fault and clock fixtures, and exports a ROADMAP item names as
		// their caller: 4(b) the stats registry, 4(c) the per-stream
		// table, 15 the drain.
		"test-only-export": {
			"internal/brass/host.go":      3, // 4(b)
			"internal/burst/client.go":    1, // 4(c)
			"internal/burst/resume.go":    1, // 4(c)
			"internal/burst/server.go":    1, // 4(c)
			"internal/ctrl/node.go":       1, // 15
			"internal/durlog/durlog.go":   2, // 15
			"internal/edge/proxy.go":      1, // 4(b)
			"internal/faults/network.go":  5,
			"internal/faults/plan.go":     4,
			"internal/faults/region.go":   2,
			"internal/kvstore/kvstore.go": 1,
			"internal/region/plane.go":    1, // 4(b)
			"internal/sim/clock.go":       3,
		},
	}
	l := testLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	r := lint.NewRunner(l)
	r.Run(pkgs)
	got := map[string]map[string]int{}
	for _, s := range r.Suppressions() {
		rel, err := filepath.Rel(l.ModRoot, s.File)
		if err != nil {
			t.Fatal(err)
		}
		if got[s.Rule] == nil {
			got[s.Rule] = map[string]int{}
		}
		got[s.Rule][filepath.ToSlash(rel)]++
		if !s.Used {
			t.Errorf("%s:%d: allow(%s) suppresses nothing", rel, s.Line, s.Rule)
		}
	}
	if !reflect.DeepEqual(got, census) {
		t.Errorf("live suppressions by rule and file:\n%v\nthe census lists:\n%v", got, census)
	}
}

// TestRepoLintsClean is the smoke test backing the tier-1 verify line: the
// module itself must pass the full brlint rule set with zero diagnostics.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l := testLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	diags := lint.NewRunner(l).Run(pkgs)
	for _, d := range diags {
		t.Errorf("%s: %s: %s", d.Pos, d.Rule, d.Message)
	}
	if len(diags) > 0 {
		t.Logf("the repository must lint clean; fix the code or add a //brlint:allow(rule) reason")
	}

	// The clean result above only means something for hot-path-alloc if the
	// latency-critical functions actually carry the annotation: assert the
	// core set is gated so a dropped //brlint:hotpath line fails loudly
	// instead of silently shrinking the rule's coverage.
	prog := lint.NewProgram(l.Fset, l.ModPath, pkgs)
	hot := map[string]bool{}
	for _, pkg := range pkgs {
		for _, n := range prog.NodesIn(pkg) {
			if n.Hotpath {
				hot[n.Name()] = true
			}
		}
	}
	for _, want := range []string{
		"(*pylon.Service).Publish",
		"(*brass.Host).Deliver",
		"(*brass.Instance).deliver",
		"(*burst.Session).write",
		"(*burst.Session).SendMsg",
		"(*trace.Span).End",
		"(*metrics.Histogram[T]).Observe",
		"(*durlog.Log).Append",
	} {
		if !hot[want] {
			t.Errorf("%s is not annotated //brlint:hotpath; the static zero-alloc gate no longer covers it", want)
		}
	}
	t.Logf("%d functions carry //brlint:hotpath", len(hot))
	if len(hot) < 10 {
		t.Errorf("only %d functions carry //brlint:hotpath; expected at least 10 (fan-out, frame encode, trace, accounting paths)", len(hot))
	}
}

// BenchmarkLintModule measures a full brlint pass over the module — every
// rule, including the interprocedural ones — against already-loaded
// packages. Loading and type-checking happen once outside the timed loop
// (they are shared by all rules in production too, via the memoizing
// Loader); what this times is the per-run cost: call-graph construction,
// summary computation, and every rule's traversal.
func BenchmarkLintModule(b *testing.B) {
	l := testLoader(b)
	pkgs, err := l.Load("./...")
	if err != nil {
		b.Fatalf("loading module: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := lint.NewRunner(l).Run(pkgs); len(diags) > 0 {
			b.Fatalf("module must lint clean, got %d diagnostics", len(diags))
		}
	}
}

// TestLoadRejectsOutsideModule pins the loader's error behavior for paths
// outside the module root.
func TestLoadRejectsOutsideModule(t *testing.T) {
	l := testLoader(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte("package x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(dir); err == nil {
		t.Fatal("expected an error loading a directory outside the module")
	}
}
