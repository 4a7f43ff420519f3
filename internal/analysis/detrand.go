package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detrand flags sources of run-to-run nondeterminism in
// determinism-critical, non-test code: wall-clock reads (time.Now /
// Since / Until), the process-global math/rand top-level functions
// (including rand.Seed), and any use of crypto/rand. The replay and
// model-checking subsystems assume that a (seed, schedule) pair fully
// determines an execution; one such call silently breaks digest-identical
// replay. Seeded construction — rand.New(rand.NewSource(seed)) — is the
// sanctioned pattern and is never flagged.
var Detrand = &Analyzer{
	Name:      "detrand",
	Doc:       "forbid wall-clock and process-global randomness in determinism-critical packages",
	AppliesTo: DeterminismCritical,
	Run:       runDetrand,
}

func runDetrand(pass *Pass) error {
	for _, f := range pass.index().files { // test files are seedplumb's jurisdiction
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
					switch fn.Name() {
					case "Now", "Since", "Until":
						pass.Reportf(sel.Pos(), "time.%s reads the wall clock; determinism-critical code must derive progress from logical rounds/activations", fn.Name())
					}
				}
			case "math/rand", "math/rand/v2":
				if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
					pass.Reportf(sel.Pos(), "global %s.%s draws from the process-wide RNG; construct a seeded *rand.Rand (rand.New(rand.NewSource(seed))) so replay stays bit-identical", obj.Pkg().Path(), fn.Name())
				}
			case "crypto/rand":
				pass.Reportf(sel.Pos(), "crypto/rand.%s is inherently nondeterministic; determinism-critical code must use seeded math/rand streams", obj.Name())
			}
			return true
		})
	}
	return nil
}
