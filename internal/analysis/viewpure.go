package analysis

import (
	"go/ast"
	"go/types"
)

// Viewpure enforces the FSSGA model's read-only view contract on
// transition functions (anything with the Automaton.Step signature,
// named or literal): a node reads its neighbours' states symmetrically
// through the View and writes only its own state. Concretely, inside a
// step-shaped function the view parameter must not be stored into a
// field, package-level variable, slice/map element or composite
// literal, must not be captured by a goroutine or defer, must not be
// appended anywhere, and may only have the read-only observation API
// invoked on it. The engine backs views with per-worker scratch that is
// recycled after every Step call, so a retained view is not merely a
// model violation — it aliases memory the next activation overwrites.
var Viewpure = &Analyzer{
	Name: "viewpure",
	Doc:  "transition functions must treat their View as read-only and non-retainable",
	Run:  runViewpure,
}

func runViewpure(pass *Pass) error {
	for _, s := range pass.index().steps {
		checkStepBody(pass, s.sig, s.body)
	}
	return nil
}

func checkStepBody(pass *Pass, sig *types.Signature, body *ast.BlockStmt) {
	// An unnamed or blank view parameter is trivially pure.
	view := sig.Params().At(1)
	if view.Name() == "" || view.Name() == "_" {
		return
	}
	parents := parentMap(body)
	name := view.Name()
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || pass.Info.Uses[id] != view {
			return true
		}
		classifyViewUse(pass, parents, id, name)
		return true
	})
}

// classifyViewUse reports a diagnostic if this use of the view parameter
// escapes or mutates it. The analysis is syntactic and best-effort:
// plain local aliases and calls passing the view to helpers are allowed.
func classifyViewUse(pass *Pass, parents map[ast.Node]ast.Node, id *ast.Ident, name string) {
	// Capture by a closure: any enclosing FuncLit below the step body is
	// judged by where that literal flows, regardless of what the use
	// itself does — a capture that outlives Step is a violation even if
	// the captured call is a read-only observation.
	for c, p := ast.Node(id), parents[id]; p != nil; c, p = p, parents[c] {
		if fl, ok := p.(*ast.FuncLit); ok {
			if judgeClosureCapture(pass, parents, fl, id, name) {
				return
			}
		}
	}
	var child ast.Node = id
	for p := parents[child]; p != nil; child, p = p, parents[p] {
		switch p := p.(type) {
		case *ast.FuncLit:
			// Safe capture (predicate executed within Step); the use's own
			// context inside the literal has already been judged below.
			return
		case *ast.SelectorExpr:
			if p.X == child {
				judgeSelector(pass, parents, p, id, name)
				return
			}
		case *ast.CompositeLit:
			pass.Reportf(id.Pos(), "view %q is stored in a composite literal; views are scratch-backed and must not outlive Step", name)
			return
		case *ast.CallExpr:
			if b, ok := calleeOf(pass.Info, p).(*types.Builtin); ok && b.Name() == "append" {
				pass.Reportf(id.Pos(), "view %q is appended to a slice; views are scratch-backed and must not outlive Step", name)
				return
			}
			switch parents[p].(type) {
			case *ast.GoStmt:
				pass.Reportf(id.Pos(), "view %q is passed to a goroutine; views are scratch-backed and must not escape Step", name)
			case *ast.DeferStmt:
				pass.Reportf(id.Pos(), "view %q is passed to a deferred call; hoist the values you need out of the view first", name)
			}
			return // passing the view to a helper that reads it is fine
		case *ast.AssignStmt:
			judgeAssign(pass, p, child, id, name)
			return
		case *ast.StarExpr:
			if pp, ok := parents[p].(*ast.AssignStmt); ok && isLHS(pp, p) {
				pass.Reportf(id.Pos(), "transition function writes through view %q (*%s = ...); views are read-only observations", name, name)
				return
			}
		case *ast.ReturnStmt, *ast.GoStmt, *ast.DeferStmt:
			// GoStmt/DeferStmt with the bare view as call argument; the
			// call itself was already judged by the CallExpr case above,
			// so reaching here means the view IS the callee — dynamic.
			return
		case *ast.BlockStmt, *ast.ExprStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.CaseClause:
			return
		}
	}
}

// isLHS reports whether e appears on the left-hand side of as.
func isLHS(as *ast.AssignStmt, e ast.Expr) bool {
	for _, l := range as.Lhs {
		if unparen(l) == e || l == e {
			return true
		}
	}
	return false
}

// judgeSelector handles view.X: method calls outside the observation
// API and writes to view fields are violations.
func judgeSelector(pass *Pass, parents map[ast.Node]ast.Node, sel *ast.SelectorExpr, id *ast.Ident, name string) {
	if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok {
		if !readonlyViewMethods[fn.Name()] {
			pass.Reportf(sel.Pos(), "transition function calls %s.%s; only the read-only observation API (Count, CountMod, CountState, DegreeCapped, Any, AnyState, None, All, Exactly, Empty, ForEach) is allowed on a View", name, fn.Name())
		}
		return
	}
	// Field access: a write is a mutation of the shared scratch.
	if as, ok := parents[sel].(*ast.AssignStmt); ok && isLHS(as, sel) {
		pass.Reportf(sel.Pos(), "transition function writes view field %s.%s; views are read-only observations", name, sel.Sel.Name)
	}
}

// judgeAssign handles `... = view`: storing the view anywhere non-local
// retains scratch memory past the Step call.
func judgeAssign(pass *Pass, as *ast.AssignStmt, rhsChild ast.Node, id *ast.Ident, name string) {
	for i, r := range as.Rhs {
		if r != rhsChild && unparen(r) != rhsChild {
			continue
		}
		var lhs ast.Expr
		if len(as.Lhs) == len(as.Rhs) {
			lhs = as.Lhs[i]
		} else if len(as.Lhs) > 0 {
			lhs = as.Lhs[0]
		}
		if lhs == nil {
			return
		}
		switch l := unparen(lhs).(type) {
		case *ast.Ident:
			if obj := pass.Info.ObjectOf(l); obj != nil && isPackageLevelVar(obj) {
				pass.Reportf(id.Pos(), "view %q is stored in package-level variable %q; views are scratch-backed and must not outlive Step", name, l.Name)
			}
			// A plain local alias is tolerated (best-effort analysis).
		case *ast.SelectorExpr:
			pass.Reportf(id.Pos(), "view %q is stored in field %s; views are scratch-backed and must not outlive Step", name, exprString(l))
		case *ast.IndexExpr:
			pass.Reportf(id.Pos(), "view %q is stored in a slice/map element; views are scratch-backed and must not outlive Step", name)
		}
		return
	}
}

// judgeClosureCapture decides whether a FuncLit capturing the view is
// safe: immediately-invoked literals and literals passed as call
// arguments (predicates) execute within Step; literals launched by
// go/defer or stored non-locally may run after the scratch is recycled.
// It reports whether a diagnostic was emitted.
func judgeClosureCapture(pass *Pass, parents map[ast.Node]ast.Node, fl *ast.FuncLit, id *ast.Ident, name string) bool {
	switch p := parents[fl].(type) {
	case *ast.CallExpr:
		// Argument or immediately-invoked: runs inside Step. But if the
		// call is the operand of go/defer, it runs later.
		switch parents[p].(type) {
		case *ast.GoStmt:
			pass.Reportf(id.Pos(), "view %q is captured by a goroutine; views are scratch-backed and must not escape Step", name)
			return true
		case *ast.DeferStmt:
			pass.Reportf(id.Pos(), "view %q is captured by a deferred closure; hoist the values you need out of the view first", name)
			return true
		}
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			switch l := unparen(l).(type) {
			case *ast.SelectorExpr, *ast.IndexExpr:
				pass.Reportf(id.Pos(), "view %q is captured by a closure stored in %s; views are scratch-backed and must not escape Step", name, exprString(l))
				return true
			case *ast.Ident:
				if obj := pass.Info.ObjectOf(l); obj != nil && isPackageLevelVar(obj) {
					pass.Reportf(id.Pos(), "view %q is captured by a closure stored in package-level variable %q; views must not escape Step", name, l.Name)
					return true
				}
			}
		}
	case *ast.CompositeLit, *ast.KeyValueExpr:
		pass.Reportf(id.Pos(), "view %q is captured by a closure stored in a composite literal; views must not escape Step", name)
		return true
	case *ast.ReturnStmt:
		pass.Reportf(id.Pos(), "view %q is captured by a returned closure; views are scratch-backed and must not escape Step", name)
		return true
	}
	return false
}

// exprString renders a short lvalue expression for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	}
	return "expression"
}
