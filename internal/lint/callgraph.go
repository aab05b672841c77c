package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// This file builds the whole-module call graph behind brlint's
// interprocedural rules (hot-path-alloc and the call-chain-aware half of
// no-lock-across-block). The graph is constructed
// once per Runner.Run over every loaded package and shared by all rules —
// the package graph is parsed and type-checked exactly once (by the
// Loader), and the Program adds one AST pass per function on top.
//
// Resolution policy (deliberately conservative, documented in DESIGN.md
// §8b):
//
//   - Static calls (package functions, concrete methods) resolve to their
//     single target; generic instantiations are folded onto their origin.
//   - Interface method calls resolve to every module type whose method set
//     satisfies the interface — the static over-approximation of dynamic
//     dispatch. Interfaces declared outside the module (io.Writer, error)
//     are not resolved; the rules that care consult explicit tables for
//     those (stdlibAllocFree, blockingByName).
//   - Calls through function values (parameters, fields, variables) are
//     recorded as dynamic: the engine cannot see the target, so rules
//     treat the edge pessimistically (hot-path-alloc) or optimistically
//     (blocking — flagging every closure invocation would drown the
//     signal; the intra-function check still covers the literal's own
//     body).
//   - Function literals are separate functions: a call site inside a
//     FuncLit is not attributed to the lexically enclosing declaration
//     (the literal runs wherever the value is invoked).

// hotpathRE matches the //brlint:hotpath annotation, optionally followed
// by prose.
var hotpathRE = regexp.MustCompile(`^//\s*brlint:hotpath(\s|$)`)

// FuncNode is one declared function or method of the module, with its call
// sites.
type FuncNode struct {
	// Fn is the function object (the generic origin for generic code).
	Fn *types.Func
	// Decl is the declaration; Decl.Body is non-nil for every node.
	Decl *ast.FuncDecl
	// Pkg is the package the declaration lives in.
	Pkg *Package
	// Hotpath reports a //brlint:hotpath annotation in the doc comment:
	// the function claims the static zero-alloc gate.
	Hotpath bool
	// Calls are the call sites in the function body (excluding bodies of
	// nested function literals).
	Calls []*CallSite
}

// Name is the node's diagnostic display name, with the module path
// shortened away ("(*pylon.Service).Publish").
func (n *FuncNode) Name() string { return shortFuncName(n.Fn) }

// CallSite is one call expression inside a FuncNode.
type CallSite struct {
	Pos token.Pos
	// Callee is the statically resolved target (origin), nil for calls
	// through function values. For interface calls it is the interface
	// method itself.
	Callee *types.Func
	// Targets are the module-internal bodies this call can reach: exactly
	// one for a static call to a module function, the implementation set
	// for an interface call, nil for stdlib or dynamic calls.
	Targets []*FuncNode
	// Dynamic is true for calls through function values (no static target).
	Dynamic bool
	// Spawned records `go f(...)`: the call runs on another goroutine and
	// never blocks (or allocates on) the caller's path beyond the spawn
	// itself.
	Spawned bool
}

// Program is the whole-module view shared by the interprocedural rules.
type Program struct {
	Fset    *token.FileSet
	ModPath string

	nodes map[*types.Func]*FuncNode
	// named collects every named (non-interface) type of the module, for
	// interface implementation resolution.
	named []*types.Named
	// implMemo caches interface-method → implementations resolution.
	implMemo map[*types.Func][]*FuncNode

	// Summary memoization (escape.go).
	allocMemo map[*FuncNode][]Fact
	allocBusy map[*FuncNode]bool
	blockMemo map[*FuncNode][]Fact
	blockBusy map[*FuncNode]bool
}

// NewProgram indexes every function of pkgs and resolves their call sites.
func NewProgram(fset *token.FileSet, modPath string, pkgs []*Package) *Program {
	p := &Program{
		Fset:      fset,
		ModPath:   modPath,
		nodes:     make(map[*types.Func]*FuncNode),
		implMemo:  make(map[*types.Func][]*FuncNode),
		allocMemo: make(map[*FuncNode][]Fact),
		allocBusy: make(map[*FuncNode]bool),
		blockMemo: make(map[*FuncNode][]Fact),
		blockBusy: make(map[*FuncNode]bool),
	}
	for _, pkg := range pkgs {
		p.indexPackage(pkg)
	}
	for _, n := range p.nodes {
		p.resolveCalls(n)
	}
	return p
}

// indexPackage registers pkg's function declarations and named types.
func (p *Program) indexPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			p.nodes[origin(obj)] = &FuncNode{
				Fn:      origin(obj),
				Decl:    fd,
				Pkg:     pkg,
				Hotpath: hasHotpathDirective(fd),
			}
		}
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		p.named = append(p.named, named)
	}
}

// hasHotpathDirective reports a //brlint:hotpath line in the declaration's
// doc comment.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if hotpathRE.MatchString(c.Text) {
			return true
		}
	}
	return false
}

// Node returns the FuncNode for fn's origin (nil for functions without a
// module body: stdlib, interface methods, externals).
func (p *Program) Node(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return p.nodes[origin(fn)]
}

// NodesIn returns pkg's function nodes in source order — the per-package
// iteration surface rules use so diagnostics stay grouped by package.
func (p *Program) NodesIn(pkg *Package) []*FuncNode {
	var out []*FuncNode
	for _, n := range p.nodes {
		if n.Pkg == pkg {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// resolveCalls collects n's call sites. Function literal bodies are
// skipped: the literal is a separate function whose invocation point is
// where the value is called.
func (p *Program) resolveCalls(n *FuncNode) {
	info := n.Pkg.Info
	record := func(call *ast.CallExpr, spawned bool) {
		// Conversions (T(x)) and builtins (len, append, ...) are not call
		// edges; the alloc scanner classifies them separately.
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				return
			}
		}
		cs := &CallSite{Pos: call.Pos(), Spawned: spawned}
		if f := calleeFunc(info, call); f != nil {
			cs.Callee = origin(f)
			if isInterfaceMethod(f) {
				cs.Targets = p.implementations(f)
			} else if t := p.Node(f); t != nil {
				cs.Targets = []*FuncNode{t}
			}
		} else {
			cs.Dynamic = true
		}
		n.Calls = append(n.Calls, cs)
	}
	var visit func(x ast.Node) bool
	visit = func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// The spawned call is an edge of its own; its arguments are
			// evaluated here, on the caller's path.
			record(v.Call, true)
			for _, arg := range v.Call.Args {
				ast.Inspect(arg, visit)
			}
			return false
		case *ast.CallExpr:
			record(v, false)
		}
		return true
	}
	ast.Inspect(n.Decl.Body, visit)
}

// isInterfaceMethod reports whether f is declared on an interface type.
func isInterfaceMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// implementations resolves an interface method to every module method that
// can stand behind it: for each named module type whose method set (value
// or pointer) satisfies the interface, the concrete method of the same
// name. Only interfaces declared inside the module are resolved; stdlib
// interfaces return nil and the rules fall back to their explicit tables.
func (p *Program) implementations(ifaceMethod *types.Func) []*FuncNode {
	ifaceMethod = origin(ifaceMethod)
	if impls, ok := p.implMemo[ifaceMethod]; ok {
		return impls
	}
	var impls []*FuncNode
	pkg := ifaceMethod.Pkg()
	inModule := pkg != nil && (pkg.Path() == p.ModPath || strings.HasPrefix(pkg.Path(), p.ModPath+"/"))
	if inModule {
		iface, _ := ifaceMethod.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if iface != nil {
			seen := make(map[*FuncNode]bool)
			for _, named := range p.named {
				var recv types.Type = named
				if !types.Implements(recv, iface) {
					recv = types.NewPointer(named)
					if !types.Implements(recv, iface) {
						continue
					}
				}
				obj, _, _ := types.LookupFieldOrMethod(recv, true, ifaceMethod.Pkg(), ifaceMethod.Name())
				if m, ok := obj.(*types.Func); ok {
					if n := p.Node(m); n != nil && !seen[n] {
						seen[n] = true
						impls = append(impls, n)
					}
				}
			}
			sort.Slice(impls, func(i, j int) bool { return impls[i].Name() < impls[j].Name() })
		}
	}
	p.implMemo[ifaceMethod] = impls
	return impls
}

// origin folds generic instantiations onto their declared origin so graph
// keys are stable.
func origin(f *types.Func) *types.Func {
	if o := f.Origin(); o != nil {
		return o
	}
	return f
}

// modPrefixRE strips the module-path prefix from qualified names:
// "(*bladerunner/internal/pylon.Service).Publish" reads better as
// "(*pylon.Service).Publish" in a diagnostic.
var modPrefixRE = regexp.MustCompile(`[^\s()*]+/internal/`)

// shortFuncName renders f for diagnostics with the module path elided.
func shortFuncName(f *types.Func) string {
	return modPrefixRE.ReplaceAllString(f.FullName(), "")
}

// shortPos renders a position inside another file as "file.go:123" for
// embedding in a diagnostic message.
func (p *Program) shortPos(pos token.Pos) string {
	pp := p.Fset.Position(pos)
	return filepath.Base(pp.Filename) + ":" + itoa(pp.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
