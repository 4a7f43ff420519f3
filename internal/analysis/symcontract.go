package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Symcontract proves the symmetric-observation contract of the FSSGA
// model (Pritchard & Vempala, Def. 3.1 and Theorem 3.7): a transition
// function sees its neighbourhood only as a multiset, through mod and
// threshold observations whose caps are constants of the automaton.
// Three families of violation are flagged:
//
//   - order-dependent ForEach folds: the engine presents neighbour
//     states in an unspecified order, so a fold must be commutative
//     (x op= e for a commutative op), extremal (a guarded min/max),
//     idempotent (x = constant-per-iteration), or collect-then-sort;
//     anything else makes the result depend on the multiset ordering;
//   - observation caps that are not compile-time constants: a cap read
//     at run time may grow with the network (graph.NumNodes and
//     friends), which turns a finite-state automaton into an
//     unbounded-counter machine;
//   - Step-shaped function literals capturing enclosing integer
//     locals: nodes are anonymous, so behaviour must not vary with
//     any per-instantiation identity smuggled in through a closure.
var Symcontract = &Analyzer{
	Name: "symcontract",
	Doc:  "transition functions observe the View as a multiset: order-invariant folds, constant caps, no identity capture",
	Run:  runSymcontract,
}

// observationCapArg maps each View observation method to the index of
// its cap (or modulus) argument, -1 when it has none to check.
var observationCapArg = map[string]int{
	"Empty":        -1,
	"Any":          -1,
	"None":         -1,
	"All":          -1,
	"AnyState":     -1,
	"ForEach":      -1,
	"Exactly":      0,
	"Count":        0,
	"CountMod":     0,
	"DegreeCapped": 0,
	"CountState":   1,
}

// isViewMethod resolves a call to a method of fssga.View, returning
// its name.
func isViewMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn, ok := calleeOf(info, call).(*types.Func)
	if !ok || !methodOf(fn, "View", fssgaViewPkg) {
		return "", false
	}
	return fn.Name(), true
}

func runSymcontract(pass *Pass) error {
	x := pass.index()
	for _, fn := range x.funcs {
		decl := x.decls[fn]
		// The View's own methods implement the observation API;
		// everything else — Step functions and the helpers they hand
		// their view to — must obey it. Views only exist inside a
		// transition call, so any observation outside the engine is
		// transition-function code.
		if x.test[fn] || decl.Body == nil || methodOf(fn, "View", fssgaViewPkg) {
			continue
		}
		checkObservations(pass, decl.Body)
	}
	// Identity capture is specific to Step-shaped closures.
	for _, s := range x.steps {
		if s.lit != nil && !s.test {
			checkStepCapture(pass, s.lit)
		}
	}
	return nil
}

// checkObservations audits every View observation inside one transition
// function: cap constancy and ForEach fold shape.
func checkObservations(pass *Pass, body *ast.BlockStmt) {
	info := pass.Info
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := isViewMethod(info, call)
		if !ok {
			return true
		}
		if name == "ForEach" {
			checkFold(pass, body, call)
			return true
		}
		idx, known := observationCapArg[name]
		if !known || idx < 0 || idx >= len(call.Args) {
			return true
		}
		arg := call.Args[idx]
		if tv, ok := info.Types[arg]; ok && tv.Value != nil {
			return true // compile-time constant cap: the model's contract
		}
		what := "cap"
		if name == "CountMod" {
			what = "modulus"
		}
		pass.Reportf(arg.Pos(), "view.%s %s is not a compile-time constant; observation caps must be constants of the automaton, independent of n (Theorem 3.7)", name, what)
		return true
	})
}

// checkStepCapture flags a Step-shaped function literal that reads an
// integer variable of an enclosing function: per-node closures are how
// node identity leaks into an (anonymous, Def. 3.1) transition rule.
func checkStepCapture(pass *Pass, lit *ast.FuncLit) {
	info := pass.Info
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || isPackageLevelVar(obj) {
			return true
		}
		if !obj.Pos().IsValid() || insideNode(lit, obj.Pos()) {
			return true // the literal's own params and locals
		}
		if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			pass.Reportf(id.Pos(), "transition function captures enclosing variable %q; per-node closures break the anonymous-network symmetry (Def. 3.1)", id.Name)
		}
		return true
	})
}

// checkFold classifies every write a ForEach fold makes to state that
// outlives the callback. The engine presents neighbour states in an
// unspecified order; the sanctioned shapes are exactly the folds whose
// result is a function of the multiset alone.
func checkFold(pass *Pass, encl ast.Node, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	lit, ok := unparen(call.Args[0]).(*ast.FuncLit)
	if !ok {
		pass.Reportf(call.Args[0].Pos(), "view.ForEach fold is not a function literal; cannot prove the fold order-invariant")
		return
	}
	info := pass.Info
	fc := &foldChecker{
		pass:    pass,
		encl:    encl,
		call:    call,
		lit:     lit,
		params:  map[types.Object]bool{},
		written: map[types.Object]bool{},
		parents: parentMap(lit),
	}
	for _, fld := range lit.Type.Params.List {
		for _, name := range fld.Names {
			if obj := info.Defs[name]; obj != nil {
				fc.params[obj] = true
			}
		}
	}
	// First pass: the set of outer objects the fold writes (an RHS
	// reading *another* accumulator is order-dependent even when its
	// own operator commutes).
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if obj := fc.outerTarget(lhs); obj != nil {
					fc.written[obj] = true
				}
			}
		case *ast.IncDecStmt:
			if obj := fc.outerTarget(n.X); obj != nil {
				fc.written[obj] = true
			}
		}
		return true
	})
	// Second pass: classify each write and each ordered sink.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			fc.checkAssign(n)
		case *ast.CallExpr:
			fc.checkSink(n)
		}
		return true
	})
}

type foldChecker struct {
	pass    *Pass
	encl    ast.Node // enclosing transition-function body
	call    *ast.CallExpr
	lit     *ast.FuncLit
	params  map[types.Object]bool
	written map[types.Object]bool
	parents map[ast.Node]ast.Node
}

// outerTarget resolves an assignment target to the object it mutates
// when that object is declared outside the fold literal (i.e. the
// write survives the iteration), nil otherwise.
func (fc *foldChecker) outerTarget(lhs ast.Expr) types.Object {
	id := rootIdent(lhs)
	if id == nil || id.Name == "_" {
		return nil
	}
	obj := fc.pass.Info.ObjectOf(id)
	if obj == nil || !obj.Pos().IsValid() || insideNode(fc.lit, obj.Pos()) {
		return nil
	}
	return obj
}

// commutativeAssignOps compose order-independently: the fold result is
// the op-reduction of the multiset regardless of iteration order.
// (x -= a -= b is x - (a+b); the subtrahends still commute.)
var commutativeAssignOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.OR_ASSIGN:  true,
	token.XOR_ASSIGN: true,
	token.AND_ASSIGN: true,
}

func (fc *foldChecker) checkAssign(as *ast.AssignStmt) {
	info := fc.pass.Info
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		// Compound assignment.
		obj := fc.outerTarget(as.Lhs[0])
		if obj == nil {
			return
		}
		if !commutativeAssignOps[as.Tok] {
			fc.report(as.Pos(), "ForEach fold updates %q with non-commutative operator %s; the view is a multiset (Theorem 3.7)", obj.Name(), as.Tok)
			return
		}
		if fc.referencesAny(as.Rhs[0], fc.written) {
			fc.report(as.Pos(), "ForEach fold update of %q reads another accumulator; the combined result depends on iteration order", obj.Name())
		}
		return
	}
	for i, lhs := range as.Lhs {
		obj := fc.outerTarget(lhs)
		if obj == nil {
			continue
		}
		if i >= len(as.Rhs) {
			continue
		}
		rhs := as.Rhs[i]
		// Idempotent set: the same value every iteration, so the final
		// state only records *whether* any element matched.
		if !fc.referencesAny(rhs, fc.params) && !fc.referencesAny(rhs, fc.written) {
			continue
		}
		// Collect-then-sort: append into a slice the enclosing
		// function sorts after the fold.
		if call, ok := unparen(rhs).(*ast.CallExpr); ok {
			if b, ok := calleeOf(info, call).(*types.Builtin); ok && b.Name() == "append" {
				if sortedAfterPos(info, fc.encl, fc.call.End(), obj) {
					continue
				}
				fc.report(as.Pos(), "slice %q accumulates multiset elements in observation order and is never sorted afterwards; sort it after the fold", obj.Name())
				continue
			}
		}
		// Extremal fold: the write is guarded by an ordering
		// comparison between an accumulator and the element, i.e. a
		// min/max selection — order-invariant up to the comparison
		// being a total order on the observed values.
		if fc.extremalGuarded(as) {
			continue
		}
		fc.report(as.Pos(), "ForEach fold overwrite of %q depends on iteration order; the view is a multiset (Theorem 3.7) — use a commutative/extremal fold or a mod-thresh observation", obj.Name())
	}
}

// checkSink flags method calls that emit fold elements into an ordered
// sink (writers, encoders) — the textual twin of an ordered overwrite.
func (fc *foldChecker) checkSink(call *ast.CallExpr) {
	fn, ok := calleeOf(fc.pass.Info, call).(*types.Func)
	if !ok || !orderedSinkMethods[fn.Name()] {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if fc.outerTarget(sel.X) == nil {
		return
	}
	argUsesParam := false
	for _, a := range call.Args {
		if fc.referencesAny(a, fc.params) {
			argUsesParam = true
		}
	}
	if argUsesParam {
		fc.report(call.Pos(), "ForEach fold feeds ordered sink %s.%s in observation order", recvName(call), fn.Name())
	}
}

// extremalGuarded reports whether the assignment sits under an if
// whose condition orders an accumulator against the fold element.
func (fc *foldChecker) extremalGuarded(as *ast.AssignStmt) bool {
	for n := fc.parents[ast.Node(as)]; n != nil && n != ast.Node(fc.lit); n = fc.parents[n] {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		if fc.orderingComparison(ifs.Cond) {
			return true
		}
	}
	return false
}

// orderingComparison looks for a </>/<=/>= comparison with a written
// accumulator on one side and the fold element on the other.
func (fc *foldChecker) orderingComparison(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			xw := fc.referencesAny(be.X, fc.written)
			yw := fc.referencesAny(be.Y, fc.written)
			xp := fc.referencesAny(be.X, fc.params)
			yp := fc.referencesAny(be.Y, fc.params)
			if (xw && yp) || (yw && xp) {
				found = true
			}
		}
		return !found
	})
	return found
}

// referencesAny reports whether e mentions any object in set.
func (fc *foldChecker) referencesAny(e ast.Expr, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := fc.pass.Info.ObjectOf(id); obj != nil && set[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

func (fc *foldChecker) report(pos token.Pos, format string, args ...any) {
	fc.pass.Reportf(pos, format, args...)
}

// orderedSinkMethods are method names that emit data in call order.
var orderedSinkMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Encode":      true,
}

// recvName renders the receiver expression of a method call for the
// diagnostic ("buf" in buf.Write), falling back to "receiver".
func recvName(call *ast.CallExpr) string {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id := rootIdent(sel.X); id != nil {
			return id.Name
		}
	}
	return "receiver"
}

// insideNode reports whether pos lies within n.
func insideNode(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

// sortedAfterPos reports whether encl calls into package sort or slices
// at or after pos with obj among the call's arguments (sort.Ints(xs),
// sort.Slice(xs, less), slices.Sort(xs)): the collect-then-sort idiom
// the fold checker sanctions for ForEach accumulators.
func sortedAfterPos(info *types.Info, encl ast.Node, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn, pkg := pkgLevelFunc(info, call)
		if fn == nil || (pkg != "sort" && pkg != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if containsObject(info, arg, obj) {
				found = true
				break
			}
		}
		return !found
	})
	return found
}
