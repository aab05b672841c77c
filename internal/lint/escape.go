package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the summary engine on top of the call graph: per-function
// summaries answering "can this function allocate?" and "can it block?".
// Summaries are memoized on the Program, computed lazily, and optimistic on
// recursion cycles (a cycle member is assumed clean while its own summary is
// in flight; the fixpoint this computes is the least one, which is sound for
// acyclic facts reached from outside the cycle).

// Fact is one reason a summary is dirty: a position inside the summarized
// function plus a human-readable description. Descriptions compose through
// call edges ("call to f, which allocates: make(map[...]) at queue.go:87"),
// so a diagnostic at the top of a chain carries the full call path down to
// the offending construct.
type Fact struct {
	Pos  token.Pos
	Desc string
}

// maxFacts caps facts retained per summary; diagnostics only ever surface
// the first, the rest exist so tests can assert multiplicity.
const maxFacts = 4

// ---- allocation summaries ----

// stdlibAllocFreePkgs are stdlib packages every function of which is
// allocation-free in steady state.
var stdlibAllocFreePkgs = map[string]bool{
	"sync/atomic":     true,
	"math":            true,
	"math/bits":       true,
	"encoding/binary": true, // fixed-width put/get on caller buffers
}

// stdlibAllocFree lists individual stdlib functions (by FullName) the
// hot-path gate trusts not to allocate per call in steady state. Entries
// here are judgement calls documented in DESIGN.md §8b: e.g. sync.Pool
// Get/Put allocate only when the pool is cold, bufio.Writer.Write only
// when the buffer spills — exactly the amortized costs the runtime
// 0 allocs/op gates also accept.
var stdlibAllocFreeFuncs = map[string]bool{
	"(*sync.Mutex).Lock":      true,
	"(*sync.Mutex).Unlock":    true,
	"(*sync.Mutex).TryLock":   true,
	"(*sync.RWMutex).Lock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RLock":   true,
	"(*sync.RWMutex).RUnlock": true,
	"(*sync.Once).Do":         true,
	"(*sync.Pool).Get":        true,
	"(*sync.Pool).Put":        true,
	"(*sync.WaitGroup).Add":   true,
	"(*sync.WaitGroup).Done":  true,

	"time.Now":                true,
	"(time.Time).Add":         true,
	"(time.Time).Sub":         true,
	"(time.Time).Before":      true,
	"(time.Time).After":       true,
	"(time.Time).Equal":       true,
	"(time.Time).IsZero":      true,
	"(time.Time).UnixNano":    true,
	"(time.Duration).Seconds": true,

	"(*bytes.Buffer).Reset": true,
	"(*bytes.Buffer).Len":   true,
	"(*bytes.Buffer).Cap":   true,
	"(*bytes.Buffer).Bytes": true,
	// Appends to a pooled buffer grow it only while the pool is warming to
	// the steady-state frame size; after that they are a bounds check and
	// a copy (the same amortization as sync.Pool above).
	"(*bytes.Buffer).Write":       true,
	"(*bytes.Buffer).WriteByte":   true,
	"(*bytes.Buffer).WriteString": true,

	"(*bufio.Writer).Flush":    true,
	"(*bufio.Writer).Buffered": true,
	// Peek and Discard work inside the buffer the Reader was built with;
	// neither ever allocates.
	"(*bufio.Reader).Peek":    true,
	"(*bufio.Reader).Discard": true,

	"errors.Is": true,

	"(*math/rand.Rand).Int63n": true,

	// Interface methods the module cannot resolve statically but the hot
	// send path is known to drive through *bufio.Writer (buffered writes
	// don't allocate; the flush cost is the transport's, not the
	// framer's).
	"(io.Writer).Write": true,
}

// stdlibAllocFree reports whether the gate trusts the external function f
// to be allocation-free.
func stdlibAllocFree(f *types.Func) bool {
	if f.Pkg() != nil && stdlibAllocFreePkgs[f.Pkg().Path()] {
		return true
	}
	return stdlibAllocFreeFuncs[f.FullName()]
}

// AllocFacts summarizes whether n can allocate on its non-error paths.
// Hotpath-annotated functions summarize as clean by contract: they are
// gated directly by the hot-path-alloc rule, and their audited
// //brlint:allow residue must not re-dirty every caller.
func (p *Program) AllocFacts(n *FuncNode) []Fact {
	if n.Hotpath {
		return nil
	}
	if facts, ok := p.allocMemo[n]; ok {
		return facts
	}
	if p.allocBusy[n] {
		return nil
	}
	p.allocBusy[n] = true
	var facts []Fact
	p.scanAllocs(n, func(pos token.Pos, desc string) {
		if len(facts) < maxFacts {
			facts = append(facts, Fact{Pos: pos, Desc: desc})
		}
	})
	p.allocBusy[n] = false
	p.allocMemo[n] = facts
	return facts
}

// scanAllocs walks n's body emitting every allocation fact: both syntactic
// constructs (literals, make/new/append, closures, boxing, string building)
// and call edges that cannot be proven allocation-free. Blocks that
// terminate by returning a non-nil error (or panicking) are failure paths
// the steady-state gate ignores — the runtime 0 allocs/op benchmarks never
// execute them either.
func (p *Program) scanAllocs(n *FuncNode, emit func(pos token.Pos, desc string)) {
	s := &allocScanner{p: p, n: n, emit: emit}
	s.block(n.Decl.Body.List)
}

type allocScanner struct {
	p    *Program
	n    *FuncNode
	emit func(pos token.Pos, desc string)
}

func (s *allocScanner) info() *types.Info { return s.n.Pkg.Info }

func (s *allocScanner) block(stmts []ast.Stmt) {
	for _, st := range stmts {
		s.stmt(st)
	}
}

func (s *allocScanner) stmt(st ast.Stmt) {
	switch v := st.(type) {
	case nil:
	case *ast.IfStmt:
		s.stmt(v.Init)
		s.expr(v.Cond)
		if !s.errBranch(v) {
			s.block(v.Body.List)
		}
		s.stmt(v.Else)
	case *ast.BlockStmt:
		s.block(v.List)
	case *ast.ForStmt:
		s.stmt(v.Init)
		s.expr(v.Cond)
		s.stmt(v.Post)
		s.block(v.Body.List)
	case *ast.RangeStmt:
		s.expr(v.X)
		s.block(v.Body.List)
	case *ast.SwitchStmt:
		s.stmt(v.Init)
		s.expr(v.Tag)
		s.block(v.Body.List)
	case *ast.TypeSwitchStmt:
		s.stmt(v.Init)
		s.stmt(v.Assign)
		s.block(v.Body.List)
	case *ast.SelectStmt:
		s.block(v.Body.List)
	case *ast.CaseClause:
		for _, e := range v.List {
			s.expr(e)
		}
		s.block(v.Body)
	case *ast.CommClause:
		s.stmt(v.Comm)
		s.block(v.Body)
	case *ast.GoStmt:
		s.emit(v.Pos(), "go statement starts a goroutine")
		for _, a := range v.Call.Args {
			s.expr(a)
		}
	case *ast.DeferStmt:
		// The deferred call runs on this goroutine: its edge counts.
		s.expr(v.Call)
	case *ast.ReturnStmt:
		s.boxingInReturn(v)
		for _, e := range v.Results {
			s.expr(e)
		}
	case *ast.AssignStmt:
		s.boxingInAssign(v)
		for _, e := range v.Rhs {
			s.expr(e)
		}
		for _, e := range v.Lhs {
			s.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						s.expr(e)
					}
				}
			}
		}
	case *ast.ExprStmt:
		s.expr(v.X)
	case *ast.SendStmt:
		s.expr(v.Chan)
		s.expr(v.Value)
	case *ast.IncDecStmt:
		s.expr(v.X)
	case *ast.LabeledStmt:
		s.stmt(v.Stmt)
	}
}

// errBranch reports whether the if body is failure handling the gate
// exempts: either the classic `if err != nil` guard, or a body terminating
// by returning a non-nil error (a sentinel/wrapped error, not a tail call)
// or panicking.
func (s *allocScanner) errBranch(v *ast.IfStmt) bool {
	if cond, ok := v.Cond.(*ast.BinaryExpr); ok && cond.Op == token.NEQ {
		if isNilIdent(cond.Y) && s.isErrorExpr(cond.X) || isNilIdent(cond.X) && s.isErrorExpr(cond.Y) {
			return true
		}
	}
	if len(v.Body.List) == 0 {
		return false
	}
	switch last := v.Body.List[len(v.Body.List)-1].(type) {
	case *ast.ReturnStmt:
		if len(last.Results) == 0 {
			return false
		}
		res := ast.Unparen(last.Results[len(last.Results)-1])
		if !s.isErrorExpr(res) || isNilIdent(res) {
			return false
		}
		switch r := res.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			return true // return err / return pkg.ErrSentinel
		case *ast.CallExpr:
			name := calleeFullName(s.info(), r)
			return name == "fmt.Errorf" || strings.HasPrefix(name, "errors.")
		}
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := s.info().Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func (s *allocScanner) isErrorExpr(e ast.Expr) bool {
	tv, ok := s.info().Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return types.AssignableTo(tv.Type, types.Universe.Lookup("error").Type())
}

func (s *allocScanner) expr(e ast.Expr) {
	switch v := e.(type) {
	case nil:
	case *ast.FuncLit:
		s.emit(v.Pos(), "function literal allocates a closure")
		// The literal's body runs at its invocation point, not here.
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if cl, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
				s.emit(v.Pos(), "&composite literal (heap allocation)")
				s.compositeElems(cl)
				return
			}
		}
		s.expr(v.X)
	case *ast.CompositeLit:
		switch s.typeOf(v).(type) {
		case *types.Slice:
			s.emit(v.Pos(), "slice literal")
		case *types.Map:
			s.emit(v.Pos(), "map literal")
		}
		s.compositeElems(v)
	case *ast.BinaryExpr:
		if v.Op == token.ADD && s.isStringType(e) && !s.isConst(e) {
			s.emit(v.Pos(), "string concatenation")
		}
		s.expr(v.X)
		s.expr(v.Y)
	case *ast.CallExpr:
		s.call(v, false)
	case *ast.IndexExpr:
		// string(b) used directly as a map index is the compiler's
		// recognized no-copy lookup form.
		if _, isMap := s.typeOf(v.X).(*types.Map); isMap {
			if conv, ok := ast.Unparen(v.Index).(*ast.CallExpr); ok && s.isConversion(conv) {
				if _, isStr := s.typeOf(conv).(*types.Basic); isStr {
					s.expr(v.X)
					for _, a := range conv.Args {
						s.expr(a)
					}
					return
				}
			}
		}
		s.expr(v.X)
		s.expr(v.Index)
	case *ast.IndexListExpr:
		s.expr(v.X)
		for _, ix := range v.Indices {
			s.expr(ix)
		}
	case *ast.ParenExpr:
		s.expr(v.X)
	case *ast.SelectorExpr:
		s.expr(v.X)
	case *ast.StarExpr:
		s.expr(v.X)
	case *ast.SliceExpr:
		s.expr(v.X)
		s.expr(v.Low)
		s.expr(v.High)
		s.expr(v.Max)
	case *ast.TypeAssertExpr:
		s.expr(v.X)
	case *ast.KeyValueExpr:
		s.expr(v.Key)
		s.expr(v.Value)
	}
}

func (s *allocScanner) compositeElems(cl *ast.CompositeLit) {
	for _, el := range cl.Elts {
		s.expr(el)
	}
}

// call classifies one call expression: builtin, conversion, or call edge.
func (s *allocScanner) call(call *ast.CallExpr, deferred bool) {
	info := s.info()
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		s.conversion(call)
		for _, a := range call.Args {
			s.expr(a)
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "append":
				s.emit(call.Pos(), "append may grow its backing array")
			case "make":
				s.emit(call.Pos(), "make allocates")
			case "new":
				s.emit(call.Pos(), "new allocates")
			}
			for _, a := range call.Args {
				s.expr(a)
			}
			return
		}
	}
	if desc := s.p.allocEdgeFact(s.n.Pkg, call); desc != "" {
		s.emit(call.Pos(), desc)
	}
	s.boxingInCall(call)
	s.expr(call.Fun)
	for _, a := range call.Args {
		s.expr(a)
	}
}

// conversion flags allocating conversions: string<->[]byte/[]rune copies
// and boxing conversions into interface types.
func (s *allocScanner) conversion(call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	dst := s.typeOf(call)
	src := s.typeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	if isStringSliceConv(dst, src) || isStringSliceConv(src, dst) {
		s.emit(call.Pos(), "string/[]byte conversion copies")
		return
	}
	if types.IsInterface(dst.Underlying()) && s.boxes(call.Args[0], src) {
		s.emit(call.Pos(), "conversion boxes a value into an interface")
	}
}

func isStringSliceConv(a, b types.Type) bool {
	ab, aok := a.Underlying().(*types.Basic)
	_, bok := b.Underlying().(*types.Slice)
	return aok && bok && ab.Info()&types.IsString != 0
}

// boxes reports whether converting a value of type t (the static type of
// expr e) into an interface allocates: anything not already an interface
// and not pointer-shaped does, unless the operand is a constant (the
// compiler materializes constant boxes in static data).
func (s *allocScanner) boxes(e ast.Expr, t types.Type) bool {
	if t == nil || types.IsInterface(t.Underlying()) {
		return false
	}
	if tv, ok := s.info().Types[e]; ok && (tv.Value != nil || tv.IsNil()) {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if b := t.Underlying().(*types.Basic); b.Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

// boxingInCall flags arguments boxed into interface-typed parameters.
func (s *allocScanner) boxingInCall(call *ast.CallExpr) {
	f := calleeFunc(s.info(), call)
	if f == nil {
		return
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1 && call.Ellipsis == token.NoPos:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		if s.boxes(arg, s.typeOf(arg)) {
			s.emit(arg.Pos(), "argument boxes into interface parameter of "+shortFuncName(f))
		}
	}
}

// boxingInReturn flags results boxed into interface-typed return values.
func (s *allocScanner) boxingInReturn(ret *ast.ReturnStmt) {
	sig, ok := s.n.Fn.Type().(*types.Signature)
	if !ok || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, res := range ret.Results {
		rt := sig.Results().At(i).Type()
		if types.IsInterface(rt.Underlying()) && s.boxes(res, s.typeOf(res)) {
			s.emit(res.Pos(), "return value boxes into interface result")
		}
	}
}

// boxingInAssign flags right-hand sides boxed into interface-typed
// destinations.
func (s *allocScanner) boxingInAssign(as *ast.AssignStmt) {
	if as.Tok == token.DEFINE || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt := s.typeOf(as.Lhs[i])
		if lt == nil || !types.IsInterface(lt.Underlying()) {
			continue
		}
		if s.boxes(as.Rhs[i], s.typeOf(as.Rhs[i])) {
			s.emit(as.Rhs[i].Pos(), "assignment boxes a value into an interface")
		}
	}
}

func (s *allocScanner) typeOf(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	if tv, ok := s.info().Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (s *allocScanner) isStringType(e ast.Expr) bool {
	t := s.typeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (s *allocScanner) isConst(e ast.Expr) bool {
	tv, ok := s.info().Types[e]
	return ok && tv.Value != nil
}

// isConversion reports whether call is a type conversion.
func (s *allocScanner) isConversion(call *ast.CallExpr) bool {
	tv, ok := s.info().Types[call.Fun]
	return ok && tv.IsType()
}

// allocEdgeFact decides whether one call edge can be proven
// allocation-free; "" means clean, anything else is the composed fact
// description (which carries the downstream chain).
func (p *Program) allocEdgeFact(pkg *Package, call *ast.CallExpr) string {
	f := calleeFunc(pkg.Info, call)
	if f == nil {
		return "call through a function value cannot be proven allocation-free"
	}
	f = origin(f)
	if isInterfaceMethod(f) {
		if stdlibAllocFree(f) {
			return ""
		}
		targets := p.implementations(f)
		if len(targets) == 0 {
			return "interface call to " + shortFuncName(f) + " cannot be resolved to module implementations"
		}
		for _, t := range targets {
			if t.Hotpath {
				continue
			}
			if facts := p.AllocFacts(t); len(facts) > 0 {
				return "interface call to " + shortFuncName(f) + " may dispatch to " + t.Name() +
					", which allocates: " + facts[0].Desc + " at " + p.shortPos(facts[0].Pos)
			}
		}
		return ""
	}
	if t := p.Node(f); t != nil {
		if t.Hotpath {
			return ""
		}
		if facts := p.AllocFacts(t); len(facts) > 0 {
			return "call to " + t.Name() + ", which allocates: " + facts[0].Desc + " at " + p.shortPos(facts[0].Pos)
		}
		return ""
	}
	if stdlibAllocFree(f) {
		return ""
	}
	return "call to " + shortFuncName(f) + " is not on the allocation-free allowlist"
}

// ---- blocking summaries ----

// blockingByName are external calls known to park the calling goroutine.
// Module functions that block (sim.Sleep and friends) need no table entry:
// their channel operations are discovered transitively.
var blockingByName = map[string]string{
	"time.Sleep":                "sleeps",
	"(*sync.WaitGroup).Wait":    "waits on a WaitGroup",
	"(*sync.Cond).Wait":         "waits on a Cond",
	"(net.Conn).Read":           "does network I/O",
	"(net.Conn).Write":          "does network I/O",
	"(*net.TCPConn).Read":       "does network I/O",
	"(*net.TCPConn).Write":      "does network I/O",
	"(io.Reader).Read":          "does blocking I/O",
	"(io.ReadWriteCloser).Read": "does blocking I/O",
}

// BlockFacts summarizes whether n can block the calling goroutine: its own
// channel operations (sends, receives, selects without default, ranges
// over channels) plus any call edge into a function that blocks. Unlike
// the allocation summary there is no error-path exemption — blocking in
// failure handling under a lock stalls the system just the same.
func (p *Program) BlockFacts(n *FuncNode) []Fact {
	if facts, ok := p.blockMemo[n]; ok {
		return facts
	}
	if p.blockBusy[n] {
		return nil
	}
	p.blockBusy[n] = true
	var facts []Fact
	emit := func(pos token.Pos, desc string) {
		if len(facts) < maxFacts {
			facts = append(facts, Fact{Pos: pos, Desc: desc})
		}
	}
	blockWalkChanOps(n.Decl.Body, emit, n.Pkg.Info)
	for _, cs := range n.Calls {
		if cs.Spawned {
			continue
		}
		if desc := p.blockEdgeFact(cs); desc != "" {
			emit(cs.Pos, desc)
		}
	}
	p.blockBusy[n] = false
	p.blockMemo[n] = facts
	return facts
}

// blockWalkChanOps emits n's own channel-level blocking operations,
// skipping function literals and treating select-with-default comm clauses
// as non-blocking.
func blockWalkChanOps(body ast.Node, emit func(token.Pos, string), info *types.Info) {
	var walk func(ast.Node)
	walk = func(node ast.Node) {
		if node == nil {
			return
		}
		ast.Inspect(node, func(x ast.Node) bool {
			switch v := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SelectStmt:
				hasDefault := false
				for _, c := range v.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					emit(v.Pos(), "select with no default case")
				}
				for _, c := range v.Body.List {
					cc := c.(*ast.CommClause)
					for _, st := range cc.Body {
						walk(st)
					}
				}
				return false
			case *ast.SendStmt:
				emit(v.Arrow, "channel send")
			case *ast.UnaryExpr:
				if v.Op == token.ARROW {
					emit(v.OpPos, "channel receive")
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[v.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						emit(v.Pos(), "range over a channel")
					}
				}
			}
			return true
		})
	}
	walk(body)
}

// blockEdgeFact decides whether the call edge can block ("" if not
// provably so; dynamic calls are treated optimistically, documented in
// DESIGN.md §8b).
func (p *Program) blockEdgeFact(cs *CallSite) string {
	if cs.Dynamic || cs.Callee == nil {
		return ""
	}
	name := cs.Callee.FullName()
	if why, ok := blockingByName[name]; ok {
		return "call to " + shortFuncName(cs.Callee) + " " + why
	}
	for _, t := range cs.Targets {
		if facts := p.BlockFacts(t); len(facts) > 0 {
			return "call to " + t.Name() + ", which blocks: " + facts[0].Desc + " at " + p.shortPos(facts[0].Pos)
		}
	}
	return ""
}
