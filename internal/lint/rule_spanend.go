package lint

import (
	"go/ast"
	"go/token"
)

// SpanMustEnd flags trace spans that are started but not ended on some
// return path. A span opened with trace.Tracer.Start measures one hop; if a
// return path skips Span.End, the hop silently vanishes from every
// assembled trace that crosses it — the kind of gap that makes a recovery
// path look instantaneous in a latency breakdown.
//
// The analysis tracks local variables assigned directly from a
// (*trace.Tracer).Start call. A span is considered released when End is
// called on it (directly or via defer), or when it escapes the function —
// returned, passed as a call argument, assigned onward, or captured by a
// function literal — since responsibility for ending it moves with the
// value. Open spans are reported at each return statement and at
// fall-off-the-end, per branch, mirroring the no-lock-across-block walk.
type SpanMustEnd struct {
	// ModPath qualifies the trace package (ModPath + "/internal/trace").
	ModPath string
}

func (r *SpanMustEnd) Name() string { return "span-must-end" }

func (r *SpanMustEnd) Check(c *Context) {
	tracePkg := r.ModPath + "/internal/trace"
	w := &spanWalker{
		c:     c,
		start: "(*" + tracePkg + ".Tracer).Start",
		end:   "(*" + tracePkg + ".Span).End",
	}
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w.scanFunc(fn.Body)
				}
			case *ast.FuncLit:
				w.scanFunc(fn.Body)
			}
			return true
		})
	}
}

type spanWalker struct {
	c          *Context
	start, end string
}

func (w *spanWalker) scanFunc(body *ast.BlockStmt) {
	open := map[string]token.Pos{}
	w.scanStmts(body.List, open)
	if !terminates(body.List) {
		w.reportOpen(body.Rbrace, open)
	}
}

func (w *spanWalker) reportOpen(pos token.Pos, open map[string]token.Pos) {
	for name, at := range open {
		w.c.Reportf(at, "span %s started here does not reach End on the return path at %s",
			name, w.c.Fset.Position(pos))
		delete(open, name)
	}
}

// isStartCall reports whether expr is a direct (*trace.Tracer).Start call.
func (w *spanWalker) isStartCall(expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	return ok && calleeFullName(w.c.Pkg.Info, call) == w.start
}

// endedSpan returns the receiver identifier name if expr is an End call on
// a plain identifier ("" otherwise).
func (w *spanWalker) endedSpan(expr ast.Expr) string {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || calleeFullName(w.c.Pkg.Info, call) != w.end {
		return ""
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// releaseEscapes drops every tracked span whose identifier appears in expr
// in an escaping position: as a call argument, on either side of a nested
// assignment, inside a composite literal, address-taken, or captured by a
// function literal. Method calls on the span itself (sp.Annotate(...)) do
// not release it — the span is the receiver there, not an argument.
func (w *spanWalker) releaseEscapes(expr ast.Expr, open map[string]token.Pos) {
	if expr == nil || len(open) == 0 {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			for _, arg := range x.Args {
				w.releaseIdents(arg, open)
			}
			// Receiver position does not escape; skip sel.X for selector
			// calls by descending only into the arguments (handled above).
			if _, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				return false
			}
		case *ast.FuncLit:
			w.releaseIdents(x.Body, open)
			return false
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				w.releaseIdents(elt, open)
			}
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				w.releaseIdents(x.X, open)
				return false
			}
		}
		return true
	})
}

// releaseIdents removes every tracked span named anywhere under n.
func (w *spanWalker) releaseIdents(n ast.Node, open map[string]token.Pos) {
	if n == nil || len(open) == 0 {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok {
			delete(open, id.Name)
		}
		return true
	})
}

func (w *spanWalker) scanStmts(stmts []ast.Stmt, open map[string]token.Pos) {
	for _, st := range stmts {
		w.scanStmt(st, open)
	}
}

// scanBranch mirrors lockWalker.scanBranch: branches that terminate keep
// their span-state changes local; fall-through branches propagate theirs.
func (w *spanWalker) scanBranch(stmts []ast.Stmt, open map[string]token.Pos) {
	clone := make(map[string]token.Pos, len(open))
	for k, v := range open {
		clone[k] = v
	}
	w.scanStmts(stmts, clone)
	if !terminates(stmts) {
		for k := range open {
			delete(open, k)
		}
		for k, v := range clone {
			open[k] = v
		}
	}
}

func (w *spanWalker) scanStmt(st ast.Stmt, open map[string]token.Pos) {
	switch s := st.(type) {
	case *ast.AssignStmt:
		// Spans escaping through the RHS of other assignments, or being
		// reassigned onward (x := sp), are released first.
		for _, e := range s.Rhs {
			if !w.isStartCall(e) {
				w.releaseEscapes(e, open)
				w.releaseIdents(e, open)
			}
		}
		// Then track fresh sp := tracer.Start(...) bindings.
		if len(s.Lhs) == len(s.Rhs) {
			for i, rhs := range s.Rhs {
				if !w.isStartCall(rhs) {
					continue
				}
				if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					open[id.Name] = rhs.Pos()
				}
			}
		}
	case *ast.ExprStmt:
		if name := w.endedSpan(s.X); name != "" {
			delete(open, name)
			return
		}
		w.releaseEscapes(s.X, open)
	case *ast.DeferStmt:
		if name := w.endedSpan(s.Call); name != "" {
			delete(open, name)
			return
		}
		w.releaseEscapes(s.Call, open)
	case *ast.GoStmt:
		w.releaseEscapes(s.Call, open)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.releaseIdents(e, open)
		}
		w.reportOpen(s.Return, open)
	case *ast.IfStmt:
		if s.Init != nil {
			w.scanStmt(s.Init, open)
		}
		w.releaseEscapes(s.Cond, open)
		w.scanBranch(s.Body.List, open)
		if s.Else != nil {
			w.scanBranch([]ast.Stmt{s.Else}, open)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.scanStmt(s.Init, open)
		}
		w.scanBranch(s.Body.List, open)
	case *ast.RangeStmt:
		w.scanBranch(s.Body.List, open)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.scanStmt(s.Init, open)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.scanBranch(cc.Body, open)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.scanStmt(s.Init, open)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.scanBranch(cc.Body, open)
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				w.scanBranch(cc.Body, open)
			}
		}
	case *ast.BlockStmt:
		w.scanStmts(s.List, open)
	case *ast.LabeledStmt:
		w.scanStmt(s.Stmt, open)
	}
}
