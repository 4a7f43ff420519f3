package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Globalwrite flags writes to package-level variables in code reachable
// from the parallel engine's worker entry points: transition functions
// (the Automaton.Step signature) and function literals launched with
// `go`. SyncRoundParallel invokes Step concurrently from multiple
// workers, so such a write is a data race the race detector only
// catches on the schedules it happens to see; this pass rejects the
// pattern on every schedule. Reachability is a static, intra-package
// over-approximation: direct calls are followed, dynamic dispatch is
// not (interface Step implementations are themselves roots).
var Globalwrite = &Analyzer{
	Name:      "globalwrite",
	Doc:       "no package-level variable writes reachable from Step or goroutine worker bodies",
	AppliesTo: DeterminismCritical,
	Run:       runGlobalwrite,
}

func runGlobalwrite(pass *Pass) error {
	// Collect declared functions and the analysis roots.
	decls := make(map[*types.Func]*ast.FuncDecl)
	var roots []ast.Node
	var rootDesc []string
	for _, f := range pass.Files {
		if IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fn, ok := pass.Info.Defs[n.Name].(*types.Func)
				if !ok || n.Body == nil {
					return true
				}
				decls[fn] = n
				if sig, ok := fn.Type().(*types.Signature); ok && isStepSignature(sig) {
					roots = append(roots, n.Body)
					rootDesc = append(rootDesc, "transition function "+fn.Name())
				}
			case *ast.GoStmt:
				if fl, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
					roots = append(roots, fl.Body)
					rootDesc = append(rootDesc, "goroutine body")
				}
				if fn := staticCallee(pass.Info, n.Call); fn != nil {
					if d, ok := decls[fn]; ok {
						roots = append(roots, d.Body)
						rootDesc = append(rootDesc, "goroutine "+fn.Name())
					} else {
						// Declared later in the package: mark via worklist
						// after collection using the object itself.
						roots = append(roots, goCallee{fn})
						rootDesc = append(rootDesc, "goroutine "+fn.Name())
					}
				}
			}
			return true
		})
	}

	// Breadth-first reachability over static intra-package calls.
	visited := make(map[ast.Node]bool)
	reason := make(map[ast.Node]string)
	var queue []ast.Node
	enqueue := func(n ast.Node, why string) {
		if body, ok := n.(goCallee); ok {
			d, ok := decls[body.fn]
			if !ok {
				return
			}
			n = d.Body
		}
		if n == nil || visited[n] {
			return
		}
		visited[n] = true
		reason[n] = why
		queue = append(queue, n)
	}
	for i, r := range roots {
		enqueue(r, rootDesc[i])
	}
	for len(queue) > 0 {
		body := queue[0]
		queue = queue[1:]
		why := reason[body]
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := staticCallee(pass.Info, call); fn != nil {
				if d, ok := decls[fn]; ok {
					enqueue(d.Body, why+" -> "+fn.Name())
				}
			}
			return true
		})
	}

	// Flag package-level writes in every reachable body.
	for body := range visited {
		checkGlobalWrites(pass, body, reason[body])
	}
	return nil
}

// goCallee defers resolution of a `go f()` target declared later in the
// package; it only exists inside runGlobalwrite's worklist.
type goCallee struct{ fn *types.Func }

func (goCallee) Pos() (p token.Pos) { return }
func (goCallee) End() (p token.Pos) { return }

func checkGlobalWrites(pass *Pass, body ast.Node, why string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				reportGlobalWrite(pass, l, why)
			}
		case *ast.IncDecStmt:
			reportGlobalWrite(pass, n.X, why)
		}
		return true
	})
}

func reportGlobalWrite(pass *Pass, lhs ast.Expr, why string) {
	id := rootIdent(lhs)
	if id == nil || id.Name == "_" {
		return
	}
	obj := pass.Info.ObjectOf(id)
	if obj == nil || !isPackageLevelVar(obj) {
		return
	}
	pass.Reportf(lhs.Pos(), "write to package-level variable %q is reachable from a parallel worker entry point (%s); workers race on it under SyncRoundParallel — localize the state or move it out of the worker path", id.Name, why)
}
