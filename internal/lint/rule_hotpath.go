package lint

import "go/token"

// hot-path-alloc: functions annotated //brlint:hotpath must be statically
// allocation-free on their non-error paths. The annotation is the static
// twin of the runtime allocs/op contracts (TestAllocContracts): the
// benchmarks prove the paths they execute, this rule proves the paths they
// don't — a regression on a branch the bench harness never takes (a rare
// cache state, an unusual frame type) is caught at lint time instead of in
// production.
//
// The rule reports, inside an annotated function:
//
//   - syntactic allocations: &T{...}, slice/map literals, make/new/append,
//     closures, go statements, string concatenation, string<->[]byte
//     conversions, boxing conversions into interfaces (explicit, at call
//     arguments, returns, and assignments);
//   - call edges that cannot be proven allocation-free: a call into a
//     module function whose transitive summary allocates, a stdlib call
//     outside the allocation-free allowlist, an interface call with a
//     dirty (or unresolvable) implementation, or any call through a
//     function value.
//
// Edges into other //brlint:hotpath functions are trusted: each annotated
// function is gated on its own, so the contract composes. Blocks that
// terminate by returning a non-nil error (or panicking) are failure paths
// outside the gate. //brlint:allow(hot-path-alloc) is the audited escape
// hatch for per-miss or sampled costs (slow-path hand-offs, active-span
// recording).

// HotPathAlloc implements the hot-path-alloc rule.
type HotPathAlloc struct{}

// Name implements Rule.
func (*HotPathAlloc) Name() string { return "hot-path-alloc" }

// Check implements Rule.
func (r *HotPathAlloc) Check(c *Context) {
	if c.Prog == nil {
		return
	}
	for _, n := range c.Prog.NodesIn(c.Pkg) {
		if !n.Hotpath {
			continue
		}
		name := n.Name()
		c.Prog.scanAllocs(n, func(pos token.Pos, desc string) {
			c.Reportf(pos, "hot-path function %s: %s", name, desc)
		})
	}
}
