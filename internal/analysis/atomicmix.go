package analysis

// atomicmix keeps atomic and plain access to one variable from mixing
// by banning the raw sync/atomic functions (atomic.AddInt64(&x, 1) and
// the like) outside tests. The typed atomics (atomic.Int64 et al.)
// reach their value only through atomic methods, so with the raw calls
// gone a variable cannot be accessed atomically in one place and
// plainly in another — the race the Go memory model leaves undefined,
// and the race detector catches only when a test happens to schedule
// it. Audited exceptions carry //fssga:conc(reason).

import "go/ast"

// Atomicmix is the sync/atomic call ban.
var Atomicmix = &Analyzer{
	Name:      "atomicmix",
	Doc:       "non-test code calls no sync/atomic function; typed atomics make mixed atomic and plain access unrepresentable (audited exceptions: //fssga:conc(reason))",
	AppliesTo: DeterminismCritical,
	Directive: ConcDirective,
	Run:       runAtomicmix,
}

func runAtomicmix(pass *Pass) error {
	for _, f := range pass.index().files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn, path := pkgLevelFunc(pass.Info, call); path == "sync/atomic" {
					pass.Reportf(call.Pos(), "call to atomic.%s: use a typed atomic (atomic.Int64 and the like), whose value cannot also be accessed plainly", fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
