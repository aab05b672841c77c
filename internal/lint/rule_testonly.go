package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// test-only-export: code that only tests run goes. An exported function,
// method, or package-scope var, const or type declared in a non-test file
// must be the target of some Info.Uses in a non-test file of the Scope,
// compared by Origin so a method value or a generic instantiation counts (a
// type's own method receivers are uses of it). Exempt are a method that
// satisfies an interface — one the Scope names as a type or as a parameter
// of a function it uses (net.Conn's Read, sort.Sort's Less), error,
// fmt.Stringer — and a package no non-test package imports (a test plane
// such as bursttest, or a main). Uses are judged against the whole Scope
// even when brlint runs on one package. //brlint:allow(test-only-export) is
// for a fixture only tests drive, or an export a ROADMAP item names as its
// future caller.

// TestOnlyExport implements the test-only-export rule.
type TestOnlyExport struct {
	// Scope is the package pattern whose non-test files count as callers
	// and whose packages are judged ("./..." for the module).
	Scope string

	inScope, imported map[string]bool
	used              map[types.Object]bool
	ifaces            map[string][]*types.Interface // by method name
	err               error
}

// Name implements Rule.
func (*TestOnlyExport) Name() string { return "test-only-export" }

// Check implements Rule.
func (r *TestOnlyExport) Check(c *Context) {
	if r.inScope == nil {
		// Expanding the pattern type-checks nothing: a package outside the
		// Scope (a fixture under testdata) costs no module load.
		r.inScope = map[string]bool{}
		dirs, err := c.Loader.expand([]string{r.Scope})
		for _, d := range dirs {
			if p, err := c.Loader.importPathFor(d); err == nil {
				r.inScope[p] = true
			}
		}
		r.err = err
	}
	if !r.inScope[c.Pkg.Path] {
		return
	}
	if r.used == nil && r.err == nil {
		r.err = r.load(c.Loader)
	}
	if r.err != nil {
		c.Reportf(c.Pkg.Files[0].Package, "cannot load %s to find callers: %v", r.Scope, r.err)
		return
	}
	if !r.imported[c.Pkg.Path] {
		return
	}
	for _, f := range c.Pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if fn := c.Pkg.Info.Defs[d.Name].(*types.Func); d.Name.IsExported() && !r.used[fn] && !r.satisfies(fn) {
					c.Reportf(d.Name.Pos(), "%s is exported but no non-test file calls it; delete it, move it into an export_test.go, or give it its production caller", fn.FullName())
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						names = spec.Names
					case *ast.TypeSpec:
						names = []*ast.Ident{spec.Name}
					}
					for _, id := range names {
						if obj := c.Pkg.Info.Defs[id]; id.IsExported() && !r.used[obj] {
							c.Reportf(id.Pos(), "%s.%s is exported but no non-test file uses it; delete it, move it into an export_test.go, or give it its production user", obj.Pkg().Path(), id.Name)
						}
					}
				}
			}
		}
	}
}

// load type-checks the Scope (the loader memoizes it) and records what its
// non-test files use, import and name as interfaces.
func (r *TestOnlyExport) load(l *Loader) error {
	pkgs, err := l.Load(r.Scope)
	if err != nil {
		return err
	}
	r.used, r.imported, r.ifaces = map[types.Object]bool{}, map[string]bool{}, map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	mention := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !seen[it] {
			seen[it] = true
			for i := 0; i < it.NumMethods(); i++ {
				r.ifaces[it.Method(i).Name()] = append(r.ifaces[it.Method(i).Name()], it)
			}
		}
	}
	str := types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String]))
	stringer := types.NewFunc(token.NoPos, nil, "String", types.NewSignatureType(nil, nil, nil, nil, str, false))
	mention(types.NewInterfaceType([]*types.Func{stringer}, nil).Complete())
	mention(types.Universe.Lookup("error").Type())
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			r.imported[imp.Path()] = true
		}
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			r.used[obj] = true
		}
		for _, tv := range p.Info.Types {
			if tv.IsType() {
				mention(tv.Type)
			} else if sig, ok := tv.Type.(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					mention(sig.Params().At(i).Type())
				}
			}
		}
	}
	return nil
}

// satisfies reports whether method fn implements a mentioned interface.
func (r *TestOnlyExport) satisfies(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	for _, it := range r.ifaces[fn.Name()] {
		if types.Implements(t, it) {
			return true
		}
	}
	return false
}
