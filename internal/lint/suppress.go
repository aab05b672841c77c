package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Suppression is one //brlint:allow(rule) comment found in a source file.
type Suppression struct {
	File   string
	Line   int
	Rule   string
	Reason string
	// Used reports whether the suppression actually absorbed a diagnostic
	// during the run.
	Used bool
}

var allowRE = regexp.MustCompile(`^//\s*brlint:allow\(([^)\s]+)\)(.*)$`)

// collectSuppressions extracts every //brlint:allow comment from files.
// Comments naming an unknown rule or lacking a reason are returned as
// diagnostics under the pseudo-rule "brlint" instead — a suppression whose
// rationale is missing is itself invariant debt. So is a //brlint:hotpath
// outside a function's doc comment: the call-graph layer reads the
// directive only there (hasHotpathDirective), so anywhere else it gates
// nothing.
func collectSuppressions(fset *token.FileSet, files []*ast.File, known map[string]bool) ([]*Suppression, []Diagnostic) {
	var sups []*Suppression
	var bad []Diagnostic
	for _, f := range files {
		funcDocs := make(map[*ast.CommentGroup]bool)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcDocs[fd.Doc] = true
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					if hotpathRE.MatchString(c.Text) {
						if !funcDocs[cg] {
							bad = append(bad, Diagnostic{
								Pos:     fset.Position(c.Pos()),
								Rule:    "brlint",
								Message: "//brlint:hotpath gates nothing here; put it in a function's doc comment, directly above the func",
							})
						}
						continue
					}
					if strings.HasPrefix(c.Text, "//brlint:") &&
						!strings.HasPrefix(c.Text, "//brlint:allow(") {
						bad = append(bad, Diagnostic{
							Pos:     fset.Position(c.Pos()),
							Rule:    "brlint",
							Message: "malformed brlint directive; use //brlint:allow(rule) reason or //brlint:hotpath",
						})
					}
					continue
				}
				pos := fset.Position(c.Pos())
				rule, reason := m[1], strings.TrimSpace(m[2])
				if !known[rule] {
					bad = append(bad, Diagnostic{
						Pos:     pos,
						Rule:    "brlint",
						Message: "suppression names unknown rule " + rule,
					})
					continue
				}
				if reason == "" {
					bad = append(bad, Diagnostic{
						Pos:     pos,
						Rule:    "brlint",
						Message: "suppression of " + rule + " needs a reason: //brlint:allow(" + rule + ") why",
					})
					continue
				}
				sups = append(sups, &Suppression{
					File:   pos.Filename,
					Line:   pos.Line,
					Rule:   rule,
					Reason: reason,
				})
			}
		}
	}
	return sups, bad
}

// matchSuppression finds a suppression covering a diagnostic of rule at p:
// an allow comment for the same rule on the same line (trailing comment) or
// on the line directly above.
func matchSuppression(sups []*Suppression, rule string, p token.Position) *Suppression {
	for _, s := range sups {
		if s.Rule == rule && s.File == p.Filename && (s.Line == p.Line || s.Line == p.Line-1) {
			return s
		}
	}
	return nil
}
