package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoLockAcrossBlock flags sync.Mutex/sync.RWMutex locks held across an
// operation that can block indefinitely: a channel send or receive, a
// select, a range over a channel, or a call known to block (WaitGroup.Wait,
// sim.Sleep, time.Sleep). Pylon's contract is that delivery never blocks
// fan-out and BRASS instances drain their mailboxes promptly; a lock held
// across a channel operation couples lock-holders to channel peers and is
// how the AP delivery path deadlocks under load.
//
// The analysis is a conservative, syntactic walk over each function body:
// it tracks which lock expressions (rendered as source text, e.g. "h.mu")
// are held at each statement, treating `defer mu.Unlock()` as holding the
// lock to the end of the function (which is exactly when a later channel
// op is a real hazard). Branches that terminate (return/branch/panic) keep
// their lock-state changes to themselves; fall-through branches propagate
// theirs. Function literals are separate functions with their own empty
// lock state.
//
// On top of the per-function walk, the rule is call-chain aware: a call
// made while a lock is held is checked against the whole-module blocking
// summaries (Program.BlockFacts) — a critical section calling a helper
// that receives on a channel two hops down is reported at the call site
// with the chain down to the blocking operation. Interface calls check
// every module implementation; calls through function values are not
// resolved (the literal's own body is still checked with its own lock
// state).
type NoLockAcrossBlock struct {
	// ModPath qualifies module-internal blocking helpers (sim.Sleep).
	ModPath string
}

func (r *NoLockAcrossBlock) Name() string { return "no-lock-across-block" }

var lockMethods = map[string]bool{
	"(*sync.Mutex).Lock":    true,
	"(*sync.RWMutex).Lock":  true,
	"(*sync.RWMutex).RLock": true,
}

var unlockMethods = map[string]bool{
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RUnlock": true,
}

func (r *NoLockAcrossBlock) blockingCalls() map[string]string {
	return map[string]string{
		"(*sync.WaitGroup).Wait":          "sync.WaitGroup.Wait",
		"time.Sleep":                      "time.Sleep",
		r.ModPath + "/internal/sim.Sleep": "sim.Sleep",
	}
}

func (r *NoLockAcrossBlock) Check(c *Context) {
	w := &lockWalker{c: c, blocking: r.blockingCalls()}
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w.scanStmts(fn.Body.List, map[string]token.Pos{})
				}
			case *ast.FuncLit:
				w.scanStmts(fn.Body.List, map[string]token.Pos{})
			}
			return true
		})
	}
}

type lockWalker struct {
	c        *Context
	blocking map[string]string
}

// lockRecv returns the rendered receiver of a lock/unlock call, e.g.
// "h.mu" for h.mu.Lock(). For promoted methods (type embeds sync.Mutex and
// the code calls s.Lock()) the receiver is the whole selector base.
func lockRecv(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X)
	}
	return "<lock>"
}

// applyLockOp updates held if expr is a Lock/Unlock call; it reports
// whether it was one.
func (w *lockWalker) applyLockOp(expr ast.Expr, held map[string]token.Pos) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	name := calleeFullName(w.c.Pkg.Info, call)
	switch {
	case lockMethods[name]:
		held[lockRecv(call)] = call.Pos()
		return true
	case unlockMethods[name]:
		delete(held, lockRecv(call))
		return true
	}
	return false
}

func (w *lockWalker) reportHeld(pos token.Pos, what string, held map[string]token.Pos) {
	for recv, at := range held {
		w.c.Reportf(pos, "%s while holding %s (locked at %s)",
			what, recv, w.c.Fset.Position(at))
	}
}

// checkExpr searches an expression tree for blocking operations performed
// while locks are held. It does not descend into function literals — those
// bodies are analyzed as separate functions.
func (w *lockWalker) checkExpr(e ast.Expr, held map[string]token.Pos) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.reportHeld(x.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if what, ok := w.blocking[calleeFullName(w.c.Pkg.Info, x)]; ok {
				w.reportHeld(x.Pos(), "blocking call to "+what, held)
			} else {
				w.checkCallBlocks(x, held)
			}
		}
		return true
	})
}

// checkCallBlocks consults the whole-module blocking summaries for a call
// made while a lock is held: known-blocking externals (net.Conn I/O) and
// module functions whose transitive summary contains a channel operation
// are reported with the call path down to the blocking site.
func (w *lockWalker) checkCallBlocks(call *ast.CallExpr, held map[string]token.Pos) {
	prog := w.c.Prog
	if prog == nil {
		return
	}
	f := calleeFunc(w.c.Pkg.Info, call)
	if f == nil {
		return
	}
	f = origin(f)
	name := f.FullName()
	if lockMethods[name] || unlockMethods[name] {
		return
	}
	if why, ok := blockingByName[name]; ok {
		w.reportHeld(call.Pos(), "call to "+shortFuncName(f)+", which "+why, held)
		return
	}
	var targets []*FuncNode
	if isInterfaceMethod(f) {
		targets = prog.implementations(f)
	} else if t := prog.Node(f); t != nil {
		targets = []*FuncNode{t}
	}
	for _, t := range targets {
		if facts := prog.BlockFacts(t); len(facts) > 0 {
			w.reportHeld(call.Pos(),
				"call to "+t.Name()+", which blocks: "+facts[0].Desc+" at "+prog.shortPos(facts[0].Pos), held)
			return
		}
	}
}

func (w *lockWalker) scanStmts(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, st := range stmts {
		w.scanStmt(st, held)
	}
}

// scanBranch analyzes a branch body with a copy of held; if the branch can
// fall through to the code after it, its lock-state changes are adopted.
func (w *lockWalker) scanBranch(stmts []ast.Stmt, held map[string]token.Pos) {
	clone := make(map[string]token.Pos, len(held))
	for k, v := range held {
		clone[k] = v
	}
	w.scanStmts(stmts, clone)
	if !terminates(stmts) {
		for k := range held {
			delete(held, k)
		}
		for k, v := range clone {
			held[k] = v
		}
	}
}

// terminates reports whether control cannot fall off the end of stmts.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return terminates(last.List)
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (w *lockWalker) scanStmt(st ast.Stmt, held map[string]token.Pos) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if w.applyLockOp(s.X, held) {
			return
		}
		w.checkExpr(s.X, held)
	case *ast.SendStmt:
		if len(held) > 0 {
			w.reportHeld(s.Arrow, "channel send", held)
		}
		w.checkExpr(s.Value, held)
	case *ast.SelectStmt:
		// A select with a default clause never blocks; the non-blocking
		// send/receive-under-lock idiom is legitimate and used by the
		// BURST client and device (send can't race the close because both
		// happen under the same lock).
		hasDefault := false
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if len(held) > 0 && !hasDefault {
			w.reportHeld(s.Select, "select", held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				w.scanBranch(cc.Body, held)
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.checkExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.checkExpr(e, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.checkExpr(e, held)
		}
	case *ast.IncDecStmt:
		w.checkExpr(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() means the lock is held for the rest of the
		// function: keep it in held so later blocking ops are flagged.
		// Other deferred calls only evaluate their arguments now.
		if name := calleeFullName(w.c.Pkg.Info, s.Call); !unlockMethods[name] {
			for _, e := range s.Call.Args {
				w.checkExpr(e, held)
			}
		}
	case *ast.GoStmt:
		for _, e := range s.Call.Args {
			w.checkExpr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.scanStmt(s.Init, held)
		}
		w.checkExpr(s.Cond, held)
		w.scanBranch(s.Body.List, held)
		if s.Else != nil {
			w.scanBranch([]ast.Stmt{s.Else}, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.scanStmt(s.Init, held)
		}
		w.checkExpr(s.Cond, held)
		w.scanBranch(s.Body.List, held)
	case *ast.RangeStmt:
		if len(held) > 0 {
			if tv, ok := w.c.Pkg.Info.Types[s.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					w.reportHeld(s.For, "range over channel", held)
				}
			}
		}
		w.checkExpr(s.X, held)
		w.scanBranch(s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.scanStmt(s.Init, held)
		}
		w.checkExpr(s.Tag, held)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.scanBranch(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.scanStmt(s.Init, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.scanBranch(cc.Body, held)
			}
		}
	case *ast.BlockStmt:
		w.scanStmts(s.List, held)
	case *ast.LabeledStmt:
		w.scanStmt(s.Stmt, held)
	}
}
