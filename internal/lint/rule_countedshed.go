package lint

import (
	"go/ast"
	"strings"
)

// CountedShed flags silent best-effort drops. The pattern
//
//	select {
//	case ch <- v:
//	default: // drop
//	}
//
// is the repository's sanctioned way to shed work under overload — but a
// shed that no metrics counter records is invisible: experiments cannot
// account for it, the conservation checks in tests cannot balance, and a
// production drop site regresses without anyone noticing. Every select
// containing a send clause AND a default clause must therefore record the
// drop on an internal/metrics instrument (Counter.Inc/Add, Gauge.Add,
// Histogram.Observe, TimeSeries.Inc/Add), either
//
//   - in the default body itself (the classic counted-drop site), or
//   - in the statements following the select in the same block (the
//     evict-retry idiom: the first select's default falls through to a
//     companion receive-select that evicts the oldest item and counts it).
//
// Sends of the empty struct literal are exempt: a `ch <- struct{}{}`
// wake-token carries no data, so "dropping" it when the buffer already
// holds a token loses nothing.
type CountedShed struct {
	// ModPath qualifies the metrics package (ModPath + "/internal/metrics").
	ModPath string
}

func (r *CountedShed) Name() string { return "counted-shed" }

// shedRecorders are the method names that count as recording a shed when
// invoked on an internal/metrics type.
var shedRecorders = map[string]bool{
	"Inc":     true,
	"Add":     true,
	"Observe": true,
}

func (r *CountedShed) Check(c *Context) {
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch x := n.(type) {
			case *ast.BlockStmt:
				list = x.List
			case *ast.CaseClause:
				list = x.Body
			case *ast.CommClause:
				list = x.Body
			default:
				return true
			}
			r.checkList(c, list)
			return true
		})
	}
}

// checkList examines one statement list: each select in it is analyzed with
// the statements after it as the fall-through continuation.
func (r *CountedShed) checkList(c *Context, list []ast.Stmt) {
	for i, st := range list {
		sel := asSelect(st)
		if sel == nil {
			continue
		}
		send, def := r.classify(sel)
		if send == nil || def == nil {
			continue
		}
		if r.recordsShed(c, def.Body) || r.recordsShed(c, list[i+1:]) {
			continue
		}
		c.Reportf(sel.Select,
			"best-effort drop is not counted: no metrics Inc/Add/Observe in the default body or after the select (silent shed)")
	}
}

// asSelect unwraps st to a select statement, looking through labels.
func asSelect(st ast.Stmt) *ast.SelectStmt {
	for {
		switch s := st.(type) {
		case *ast.SelectStmt:
			return s
		case *ast.LabeledStmt:
			st = s.Stmt
		default:
			return nil
		}
	}
}

// classify returns the select's first droppable send clause and its default
// clause (either may be nil). Wake-token sends of struct{}{} do not count:
// they carry no data, so nothing is lost when the buffer already holds one.
func (r *CountedShed) classify(sel *ast.SelectStmt) (send *ast.SendStmt, def *ast.CommClause) {
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			def = cc
			continue
		}
		if s, ok := cc.Comm.(*ast.SendStmt); ok && send == nil && !isEmptyStructLit(s.Value) {
			send = s
		}
	}
	return send, def
}

// isEmptyStructLit reports whether e is the literal struct{}{}.
func isEmptyStructLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return false
	}
	st, ok := lit.Type.(*ast.StructType)
	return ok && (st.Fields == nil || len(st.Fields.List) == 0)
}

// recordsShed reports whether any statement in stmts (recursively,
// including nested selects and function literals) calls a shed-recording
// method on an internal/metrics type.
func (r *CountedShed) recordsShed(c *Context, stmts []ast.Stmt) bool {
	metricsPkg := r.ModPath + "/internal/metrics."
	for _, st := range stmts {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeFullName(c.Pkg.Info, call)
			if !strings.Contains(name, metricsPkg) {
				return true
			}
			if dot := strings.LastIndex(name, "."); dot >= 0 && shedRecorders[name[dot+1:]] {
				found = true
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
