package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoDirectTime enforces the virtual-time invariant: outside internal/sim
// (and _test.go files, which the loader never parses), code must not read
// or schedule against the wall clock directly. Components take a sim.Clock
// or sim.Scheduler so the identical logic runs under the live wall clock
// and under the deterministic discrete-event harness that regenerates the
// paper's 24-hour experiments in seconds.
type NoDirectTime struct {
	// ModPath is the module path; ModPath+"/internal/sim" is the only
	// package allowed to touch the time package's clock functions.
	ModPath string
}

// deniedTimeFuncs are the wall-clock entry points of the time package. The
// pure constructors/formatters (time.Date, time.Parse, time.Unix, …) and
// the Duration arithmetic are allowed — they are deterministic.
var deniedTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"Sleep":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

func (r *NoDirectTime) Name() string { return "no-direct-time" }

func (r *NoDirectTime) Check(c *Context) {
	if c.Pkg.Path == r.ModPath+"/internal/sim" ||
		strings.HasPrefix(c.Pkg.Path, r.ModPath+"/internal/sim/") {
		return
	}
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := c.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			// Methods (time.Time.After, time.Time.Since, …) are pure
			// arithmetic on existing values; only the package-level
			// wall-clock functions are denied.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			if deniedTimeFuncs[fn.Name()] {
				c.Reportf(sel.Pos(), "time.%s reads the wall clock; take a sim.Clock/sim.Scheduler instead (only internal/sim may use it)", fn.Name())
			}
			return true
		})
	}
}
