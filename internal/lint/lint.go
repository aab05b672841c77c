// Package lint implements brlint, Bladerunner's static-analysis suite. It
// checks only the invariants nothing else in the tier-1 line checks — `go
// vet` covers lock copies, Go 1.22 covers loop-variable capture, and the
// overload tests cover Control never being shed (DESIGN.md §8a has the
// table):
//
//   - no-direct-time: components take a sim.Clock/sim.Scheduler instead of
//     calling the time package, so the same logic runs under wall clock and
//     under the deterministic experiment harness.
//   - no-lock-across-block: a sync.Mutex/RWMutex must not be held across a
//     channel send/receive, select, or known blocking call — a stalled
//     receiver would turn Pylon's best-effort AP delivery path into a
//     system-wide stall.
//   - counted-shed: a select with a send and a default clause (best-effort
//     drop) must record the shed on a metrics instrument — an uncounted
//     drop is invisible to experiments and conservation checks.
//   - span-must-end: a span opened with trace.Tracer.Start must reach
//     Span.End on every return path, or the hop silently disappears from
//     assembled traces.
//   - hot-path-alloc: a function annotated //brlint:hotpath in its doc
//     comment must be statically allocation-free on its non-error paths.
//   - test-only-export: an exported function or method must be named by
//     some non-test file of the module (or satisfy an interface), so code
//     only tests run does not pass for an API.
//
// Diagnostics are suppressed with an inline escape hatch:
//
//	//brlint:allow(rule-name) reason for the exception
//
// placed on the offending line or on the line directly above it. The reason
// is mandatory; `brlint -suppressions` audits every active suppression.
//
// The implementation is standard library only (go/parser, go/ast, go/types,
// go/token), honoring the repository's stdlib-only rule.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one rule violation.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// Rule is one invariant check run over a type-checked package.
type Rule interface {
	// Name is the rule identifier used in diagnostics and in
	// //brlint:allow(name) suppressions.
	Name() string
	// Check inspects c.Pkg and reports violations through c.Reportf.
	Check(c *Context)
}

// Context is the per-(rule, package) state handed to Rule.Check.
type Context struct {
	Pkg *Package
	// Fset translates token.Pos values into positions.
	Fset *token.FileSet
	// Prog is the whole-module call graph + summary engine, built once per
	// Run and shared by every (rule, package) pair. Interprocedural rules
	// (hot-path-alloc, the call-chain half of no-lock-across-block) query
	// it; per-function rules ignore it.
	Prog *Program
	// Loader loaded Pkg; module-wide rules (test-only-export) load the
	// rest of their scope through it.
	Loader *Loader

	rule   string
	report func(pos token.Pos, rule, msg string)
}

// Reportf records a diagnostic for the current rule at pos.
func (c *Context) Reportf(pos token.Pos, format string, args ...any) {
	c.report(pos, c.rule, fmt.Sprintf(format, args...))
}

// Runner applies a set of rules to packages and resolves suppressions.
type Runner struct {
	Rules   []Rule
	Fset    *token.FileSet
	ModPath string

	loader       *Loader
	suppressions []Suppression
}

// NewRunner returns a Runner over the loader's module with the given rules
// (DefaultRules() if none).
func NewRunner(l *Loader, rules ...Rule) *Runner {
	if len(rules) == 0 {
		rules = DefaultRules(l.ModPath)
	}
	return &Runner{Rules: rules, Fset: l.Fset, ModPath: l.ModPath, loader: l}
}

// Run checks every package and returns the surviving diagnostics, sorted by
// position. Diagnostics matched by a //brlint:allow comment are dropped and
// recorded as used suppressions; malformed suppression comments surface as
// diagnostics of the pseudo-rule "brlint".
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	// Suppressions are validated against the full rule set, not just the
	// active subset: a runner over one rule must not misreport a legitimate
	// allow comment for another rule as naming an unknown rule.
	known := make(map[string]bool)
	for _, rule := range DefaultRules(r.ModPath) {
		known[rule.Name()] = true
	}
	// One call graph for the whole run: the loader already type-checked
	// the package graph once; the Program adds a single AST pass per
	// function, and its memoized summaries are shared across all rules
	// and packages (the tier-1 lint-time budget, DESIGN.md §8b). It spans
	// the packages' module dependencies too, so a callee outside them is
	// judged by its body, as it is when the whole module is linted.
	prog := NewProgram(r.Fset, r.ModPath, r.loader.withDeps(pkgs))
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sups, bad := collectSuppressions(r.Fset, pkg.Files, known)
		diags = append(diags, bad...)
		for _, rule := range r.Rules {
			c := &Context{
				Pkg:    pkg,
				Fset:   r.Fset,
				Prog:   prog,
				Loader: r.loader,
				rule:   rule.Name(),
				report: func(pos token.Pos, name, msg string) {
					p := r.Fset.Position(pos)
					if s := matchSuppression(sups, name, p); s != nil {
						s.Used = true
						return
					}
					diags = append(diags, Diagnostic{Pos: p, Rule: name, Message: msg})
				},
			}
			rule.Check(c)
		}
		for i := range sups {
			r.suppressions = append(r.suppressions, *sups[i])
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Rule < diags[j].Rule
	})
	return diags
}

// Suppressions returns every //brlint:allow comment seen by Run, in source
// order — the data behind `brlint -suppressions`.
func (r *Runner) Suppressions() []Suppression {
	s := append([]Suppression(nil), r.suppressions...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].File != s[j].File {
			return s[i].File < s[j].File
		}
		return s[i].Line < s[j].Line
	})
	return s
}

// DefaultRules is the full brlint rule set for the module modPath.
func DefaultRules(modPath string) []Rule {
	return []Rule{
		&NoDirectTime{ModPath: modPath},
		&NoLockAcrossBlock{ModPath: modPath},
		&SpanMustEnd{ModPath: modPath},
		&CountedShed{ModPath: modPath},
		&HotPathAlloc{},
		&TestOnlyExport{Scope: "./..."},
	}
}

// ---- shared AST/type helpers ----

// calleeFunc resolves the function or method named by call.Fun, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// calleeFullName is calleeFunc's FullName ("time.Now",
// "(*sync.Mutex).Lock"), or "".
func calleeFullName(info *types.Info, call *ast.CallExpr) string {
	if f := calleeFunc(info, call); f != nil {
		return f.FullName()
	}
	return ""
}
