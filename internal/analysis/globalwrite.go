package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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
	x := pass.index()
	// The roots, merged in source order: transition functions and the
	// bodies `go` statements spawn (a literal, or a same-unit
	// declaration).
	type root struct {
		pos  token.Pos
		body *ast.BlockStmt
		fn   *types.Func // nil for a literal
		why  string
	}
	var roots []root
	for _, s := range x.steps {
		if s.decl != nil && !s.test {
			roots = append(roots, root{s.decl.Pos(), s.decl.Body, s.fn, "transition function " + s.fn.Name()})
		}
	}
	for _, sp := range pass.conc().spawns {
		if lit, ok := unparen(sp.stmt.Call.Fun).(*ast.FuncLit); ok {
			roots = append(roots, root{sp.stmt.Pos(), lit.Body, nil, "goroutine body"})
		} else if fn := staticCallee(pass.Info, sp.stmt.Call); fn != nil && x.inUnit(fn) && x.decls[fn].Body != nil {
			roots = append(roots, root{sp.stmt.Pos(), x.decls[fn].Body, fn, "goroutine " + fn.Name()})
		}
	}
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].pos < roots[j].pos })

	// Breadth-first reachability over the static call graph: every
	// edge, in-frame or not, runs on some worker.
	visited := make(map[*ast.BlockStmt]bool)
	var queue []root
	enqueue := func(r root) {
		if !visited[r.body] {
			visited[r.body] = true
			queue = append(queue, r)
		}
	}
	for _, r := range roots {
		enqueue(r)
	}
	for i := 0; i < len(queue); i++ {
		r := queue[i]
		follow := func(callee *types.Func) {
			if body := x.decls[callee].Body; body != nil {
				enqueue(root{body: body, fn: callee, why: r.why + " -> " + callee.Name()})
			}
		}
		if r.fn != nil {
			for _, e := range x.calls[r.fn] {
				follow(e.callee)
			}
		} else {
			x.walkFrames(r.body, func(n ast.Node, _ bool) {
				if callee := x.callee(n); callee != nil {
					follow(callee)
				}
			})
		}
	}

	// Flag package-level writes in every reachable body.
	for _, r := range queue {
		checkGlobalWrites(pass, r.body, r.why)
	}
	return nil
}

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
