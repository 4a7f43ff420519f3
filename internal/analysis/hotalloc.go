package analysis

// hotalloc proves the engine's zero-allocation contract at the source
// level. Steady-state rounds, serial and sharded, are allocation-free,
// which benches witness dynamically (asserting 0 allocs/op). This pass
// makes it a static theorem: a function marked
//
//	//fssga:hotpath
//
// (in its doc comment, on its own line above the declaration, or on the
// line of / above a function literal) must contain no potential heap
// allocation. Flagged allocation classes:
//
//   - append (may grow the backing array), make, new;
//   - slice/map composite literals, and &T{...} literals whose address
//     escapes the stack;
//   - interface boxing: concrete values passed to interface-typed
//     parameters (including fmt/errors ...any variadics), assigned to
//     interface-typed variables, returned as interface results, or
//     explicitly converted;
//   - allocating conversions: string<->[]byte/[]rune, integer->string;
//   - string concatenation;
//   - escaping closures (a func literal capturing outer variables is
//     allocation-free only when it never leaves call position);
//   - go statements, and defer inside a loop (heap-allocated frames);
//   - calls that may allocate: dynamic calls through function values or
//     interface methods, calls to unmarked same-unit functions whose
//     transitive summary may allocate, and unwhitelisted calls across
//     the unit boundary. Calls to other //fssga:hotpath functions are
//     trusted — their obligations are checked at their own definitions.
//
// Allocation expressions that only feed panic(...) are excused: a crash
// path runs at most once and its diagnostics would drown the signal.
//
// An audited exception is recorded as //fssga:alloc(reason) on the
// flagged line or the line above — the analyzer's own directive, so a
// model-contract audit can never wave an allocation through. The
// testing.AllocsPerRun harness in internal/fssga cross-checks the
// verdicts: statically proven functions must measure zero allocations
// (static dominates dynamic, exactly as capinfer's footprints must
// dominate mc's witnesses).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathDirective marks a function whose body hotalloc must prove
// allocation-free.
const HotpathDirective = "//fssga:hotpath"

// Hotalloc is the zero-allocation analyzer for //fssga:hotpath functions.
var Hotalloc = &Analyzer{
	Name:      "hotalloc",
	Doc:       "functions marked //fssga:hotpath must be provably heap-allocation-free (audited exceptions: //fssga:alloc(reason))",
	Directive: AllocDirective,
	Run:       runHotalloc,
}

// hotallocPkgAllow lists packages whose exported functions and methods
// never allocate on any path the engine exercises.
var hotallocPkgAllow = map[string]bool{
	"sync/atomic": true,
	"math/bits":   true,
	"math":        true,
}

// hotallocFuncAllow lists individual allocation-free functions and
// methods (keyed by types.Func.FullName) outside whitelisted packages:
// the CSR read API is flat-array indexing, and the steady-state rand
// draw methods only advance their source.
var hotallocFuncAllow = map[string]bool{
	"(*repro/internal/graph.CSR).Neighbors": true,
	"(*repro/internal/graph.CSR).Alive":     true,
	"(*repro/internal/graph.CSR).Cap":       true,
	"(*repro/internal/graph.CSR).Degree":    true,
	"(*math/rand.Rand).Intn":                true,
	"(*math/rand.Rand).Int63":               true,
	"(*math/rand.Rand).Int31":               true,
	"(*math/rand.Rand).Uint64":              true,
	"(*math/rand.Rand).Float64":             true,
}

// hotallocCtx is the per-unit state of one hotalloc run. It reads the
// unit's declarations and //fssga:hotpath lines from the index, but
// keeps its own call edges: the calls its body scan sees, test-file
// declarations and non-invoked literal bodies included, panic
// arguments excused.
type hotallocCtx struct {
	*unitIndex
	hot   []ast.Node        // marked *ast.FuncDecl / *ast.FuncLit nodes with bodies, in source order
	isHot map[ast.Node]bool // every marked node
	// mayAlloc is the transitive allocation summary of unmarked same-unit
	// declarations: true when the function (or anything it statically
	// calls within the unit) contains a potential allocation.
	mayAlloc map[*types.Func]bool
}

func runHotalloc(pass *Pass) error {
	h := newHotallocCtx(pass.Unit)
	for _, node := range h.hot {
		body, sig := h.funcOf(node)
		h.checkBody(body, sig, pass.Reportf)
	}
	return nil
}

// newHotallocCtx collects the unit's hotpath marks and computes the
// may-allocate summaries of the unmarked declarations.
func newHotallocCtx(u *Unit) *hotallocCtx {
	h := &hotallocCtx{
		unitIndex: u.index(),
		isHot:     make(map[ast.Node]bool),
		mayAlloc:  make(map[*types.Func]bool),
	}
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if h.declMarked(fn) {
					h.isHot[fn] = true
					if fn.Body != nil {
						h.hot = append(h.hot, fn)
					}
				}
			case *ast.FuncLit:
				if h.directiveAt(fn.Pos(), HotpathDirective) {
					h.isHot[fn] = true
					h.hot = append(h.hot, fn)
				}
			}
			return true
		})
	}

	// Fixed point over the unmarked declarations: mayAlloc only flips
	// false -> true, so iteration terminates. Marked functions carry
	// their own obligations and are never summarized.
	for changed := true; changed; {
		changed = false
		for _, obj := range h.funcs {
			decl := h.decls[obj]
			if h.isHot[decl] || h.mayAlloc[obj] || decl.Body == nil {
				continue
			}
			found := false
			h.checkBody(decl.Body, funcSig(h.Info, decl), func(token.Pos, string, ...any) { found = true })
			if found {
				h.mayAlloc[obj] = true
				changed = true
			}
		}
	}
	return h
}

// declMarked reports whether a declaration is hotpath-marked: directive
// in its doc comment, or on the declaration line / the line above.
func (h *hotallocCtx) declMarked(fn *ast.FuncDecl) bool {
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			p := h.Fset.Position(c.Pos())
			if h.directiveLines(HotpathDirective)[p.Filename][p.Line] {
				return true
			}
		}
	}
	return h.directiveAt(fn.Pos(), HotpathDirective)
}

// funcOf returns the body and signature of a marked node.
func (h *hotallocCtx) funcOf(node ast.Node) (*ast.BlockStmt, *types.Signature) {
	if fn, ok := node.(*ast.FuncDecl); ok {
		return fn.Body, funcSig(h.Info, node)
	}
	return node.(*ast.FuncLit).Body, funcSig(h.Info, node)
}

// checkBody scans one function body and reports every potential heap
// allocation through report. sig is the scanned function's own
// signature, consulted for return-statement boxing. It is used both to
// diagnose marked functions (report = pass.Reportf) and to summarize
// unmarked ones (report = set-a-flag).
func (h *hotallocCtx) checkBody(body *ast.BlockStmt, sig *types.Signature, report func(pos token.Pos, format string, args ...any)) {
	info := h.Info
	qual := types.RelativeTo(h.Pkg)
	parents := parentMap(body)
	excused := panicArgNodes(info, body)
	handledLit := make(map[ast.Expr]bool) // composite literals flagged via &T{...}

	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || excused[n] {
			return !excused[n]
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if safe, capture := h.closureSafe(n, body, parents); !safe {
				report(n.Pos(), "closure captures %s and may escape: its allocation is only free in call position", capture)
			}
			if h.isHot[n] {
				return false // body checked as its own marked function
			}

		case *ast.GoStmt:
			report(n.Pos(), "go statement on a hot path allocates a goroutine")

		case *ast.DeferStmt:
			if loopEnclosed(n, body, parents) {
				report(n.Pos(), "defer inside a loop heap-allocates its frame")
			}

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := unparen(n.X).(*ast.CompositeLit); ok {
					handledLit[lit] = true
					report(n.Pos(), "address of composite literal may escape to the heap")
				}
			}

		case *ast.CompositeLit:
			if handledLit[n] {
				return true
			}
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok && tv.Value == nil && isStringType(tv.Type) {
					report(n.Pos(), "string concatenation allocates")
				}
			}

		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break // tuple assignment: conversions already flag the RHS
				}
				h.checkBoxing(lhsType(info, lhs), n.Rhs[i], "assignment", report)
			}

		case *ast.ReturnStmt:
			s := enclosingSignature(info, n, parents)
			if s == nil {
				s = sig // the return belongs to the scanned function itself
			}
			if s != nil && len(n.Results) == s.Results().Len() {
				for i, res := range n.Results {
					h.checkBoxing(s.Results().At(i).Type(), res, "return", report)
				}
			}

		case *ast.CallExpr:
			h.checkCall(n, body, qual, report)
		}
		return true
	})
}

// checkCall classifies one call expression: conversion, builtin, trusted
// or risky call — plus interface boxing of the arguments when the call
// itself is allocation-clean.
func (h *hotallocCtx) checkCall(call *ast.CallExpr, body *ast.BlockStmt, qual types.Qualifier, report func(token.Pos, string, ...any)) {
	info := h.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		h.checkConversion(tv.Type, call, qual, report)
		return
	}
	if b, ok := calleeOf(info, call).(*types.Builtin); ok {
		switch b.Name() {
		case "append":
			report(call.Pos(), "append may grow its backing array: prove capacity or audit with %s(reason)", AllocDirective)
		case "make":
			report(call.Pos(), "make allocates")
		case "new":
			report(call.Pos(), "new allocates")
		case "print", "println":
			report(call.Pos(), "%s boxes its operands", b.Name())
		}
		return
	}

	fn := staticCallee(h.Info, call)
	if fn == nil {
		// The callee is a function value. Two shapes are statically
		// visible and allocation-free to invoke: an immediately invoked
		// literal, and a body-local variable only ever bound to literals
		// (their bodies are scanned inline by this same walk).
		if _, isLit := unparen(call.Fun).(*ast.FuncLit); isLit || h.localFuncLitVar(call.Fun, body) {
			h.checkCallBoxing(call, report)
		} else {
			report(call.Pos(), "dynamic call through a function value may allocate")
		}
		return
	}
	if dynamicDispatch(fn) {
		report(call.Pos(), "dynamic call %s may allocate (interface dispatch)", fn.Name())
		return
	}
	if decl, ok := h.decls[fn]; ok { // same unit
		// Marked callees are trusted here: their obligations are checked
		// at the marked definition.
		if !h.isHot[decl] && h.mayAlloc[fn] {
			report(call.Pos(), "call to %s may allocate (unmarked function with allocating summary)", fn.Name())
			return
		}
	} else if !hotallocAllowed(fn) {
		report(call.Pos(), "call to %s crosses the unit boundary and is not allocation-whitelisted", fn.FullName())
		return
	}
	h.checkCallBoxing(call, report)
}

// checkCallBoxing flags concrete arguments passed to interface-typed
// parameters of an allocation-clean call.
func (h *hotallocCtx) checkCallBoxing(call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	info := h.Info
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		h.checkBoxing(pt, arg, "argument", report)
	}
}

// checkBoxing reports expr when assigning it to target requires boxing a
// concrete value into an interface.
func (h *hotallocCtx) checkBoxing(target types.Type, expr ast.Expr, what string, report func(token.Pos, string, ...any)) {
	if target == nil || !types.IsInterface(target.Underlying()) {
		return
	}
	if _, isTP := target.(*types.TypeParam); isTP {
		return // generic instantiation, not runtime interface conversion
	}
	tv, ok := h.Info.Types[expr]
	if !ok || tv.IsNil() || tv.Type == nil || types.IsInterface(tv.Type.Underlying()) {
		return
	}
	if _, isTP := tv.Type.(*types.TypeParam); isTP {
		return
	}
	report(expr.Pos(), "%s boxes a concrete %s into an interface", what, types.TypeString(tv.Type, types.RelativeTo(h.Pkg)))
}

// checkConversion flags type conversions that allocate: boxing into an
// interface, string<->byte/rune slices, and integer-to-string.
func (h *hotallocCtx) checkConversion(target types.Type, call *ast.CallExpr, qual types.Qualifier, report func(token.Pos, string, ...any)) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	tv, ok := h.Info.Types[arg]
	if !ok || tv.IsNil() || tv.Type == nil {
		return
	}
	src, dst := tv.Type.Underlying(), target.Underlying()
	switch {
	case types.IsInterface(dst) && !types.IsInterface(src):
		report(call.Pos(), "conversion boxes a concrete %s into an interface", types.TypeString(tv.Type, qual))
	case isStringType(dst) && isSliceType(src):
		report(call.Pos(), "slice-to-string conversion copies and allocates")
	case isSliceType(dst) && isStringType(src):
		report(call.Pos(), "string-to-slice conversion copies and allocates")
	case isStringType(dst) && isIntegerType(src) && tv.Value == nil:
		report(call.Pos(), "integer-to-string conversion allocates")
	}
}

// closureSafe reports whether creating the function literal cannot
// allocate: it captures no outer variables (compiled as a plain
// function), or it never leaves call position — immediately invoked, or
// bound to a local variable that is only ever called. Otherwise it
// returns the name of one captured variable for the diagnostic.
func (h *hotallocCtx) closureSafe(lit *ast.FuncLit, scope ast.Node, parents map[ast.Node]ast.Node) (safe bool, capture string) {
	capture = h.capturedVar(lit)
	if capture == "" {
		return true, ""
	}
	switch p := parents[lit].(type) {
	case *ast.CallExpr:
		if unparen(p.Fun) == lit {
			return true, "" // immediately invoked, never escapes
		}
	case *ast.AssignStmt:
		// The literal must be the whole RHS of a 1:1 (re)assignment to a
		// local identifier that is only ever used as a callee.
		if len(p.Lhs) == 1 && len(p.Rhs) == 1 && p.Rhs[0] == lit {
			if id, ok := p.Lhs[0].(*ast.Ident); ok {
				var obj types.Object
				if p.Tok == token.DEFINE {
					obj = h.Info.Defs[id]
				} else {
					obj = h.Info.Uses[id]
				}
				if obj != nil && !isPackageLevelVar(obj) && h.onlyCalled(obj, scope, parents) {
					return true, ""
				}
			}
		}
	}
	return false, capture
}

// capturedVar returns the name of one variable the literal captures from
// an enclosing function, or "" when it captures nothing.
func (h *hotallocCtx) capturedVar(lit *ast.FuncLit) string {
	info := h.Info
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || isPackageLevelVar(v) {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			captured = v.Name()
		}
		return true
	})
	return captured
}

// onlyCalled reports whether every use of obj inside scope is as the
// callee of a call expression.
func (h *hotallocCtx) onlyCalled(obj types.Object, scope ast.Node, parents map[ast.Node]ast.Node) bool {
	ok := true
	ast.Inspect(scope, func(n ast.Node) bool {
		id, isID := n.(*ast.Ident)
		if !isID || h.Info.Uses[id] != obj {
			return ok
		}
		var p ast.Node = id
		for {
			pe, isParen := parents[p].(*ast.ParenExpr)
			if !isParen {
				break
			}
			p = pe
		}
		if call, isCall := parents[p].(*ast.CallExpr); !isCall || unparen(call.Fun) != id {
			ok = false
		}
		return ok
	})
	return ok
}

// localFuncLitVar reports whether fun names a variable declared inside
// body whose every binding is a function literal, so a call through it
// resolves to code this same walk already scanned inline.
func (h *hotallocCtx) localFuncLitVar(fun ast.Expr, body *ast.BlockStmt) bool {
	id, ok := unparen(fun).(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := h.Info.Uses[id].(*types.Var)
	if !ok || obj.Pos() < body.Pos() || obj.Pos() >= body.End() {
		return false
	}
	bound, onlyLits := false, true
	ast.Inspect(body, func(n ast.Node) bool {
		a, isAssign := n.(*ast.AssignStmt)
		if !isAssign {
			return true
		}
		for i, lhs := range a.Lhs {
			lid, isID := unparen(lhs).(*ast.Ident)
			if !isID {
				continue
			}
			var lobj types.Object
			if a.Tok == token.DEFINE {
				lobj = h.Info.Defs[lid]
			} else {
				lobj = h.Info.Uses[lid]
			}
			if lobj != obj {
				continue
			}
			if i < len(a.Rhs) {
				if _, isLit := unparen(a.Rhs[i]).(*ast.FuncLit); isLit {
					bound = true
					continue
				}
			}
			onlyLits = false
		}
		return true
	})
	return bound && onlyLits
}

// dynamicDispatch reports whether fn is an interface method (so a call
// resolves at runtime and nothing is known about its allocations).
func dynamicDispatch(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type().Underlying())
}

// hotallocAllowed reports whether a cross-unit callee is on the
// allocation-free whitelist.
func hotallocAllowed(fn *types.Func) bool {
	if fn.Pkg() != nil && hotallocPkgAllow[fn.Pkg().Path()] {
		return true
	}
	return hotallocFuncAllow[fn.FullName()]
}

// panicArgNodes returns every node lexically inside an argument of a
// panic(...) call: allocation on a crash path runs at most once, so it
// is excused wholesale.
func panicArgNodes(info *types.Info, body ast.Node) map[ast.Node]bool {
	excused := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if b, isB := calleeOf(info, call).(*types.Builtin); !isB || b.Name() != "panic" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if m != nil {
					excused[m] = true
				}
				return true
			})
		}
		return true
	})
	return excused
}

// loopEnclosed reports whether n sits inside a for/range statement
// within body.
func loopEnclosed(n ast.Node, body ast.Node, parents map[ast.Node]ast.Node) bool {
	for p := parents[n]; p != nil && p != body; p = parents[p] {
		switch p.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit:
			return false // the defer belongs to the literal's frame
		}
	}
	return false
}

// lhsType resolves the static type of an assignment target, or nil for
// blank and untypeable targets.
func lhsType(info *types.Info, lhs ast.Expr) types.Type {
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return nil
		}
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	if tv, ok := info.Types[lhs]; ok {
		return tv.Type
	}
	return nil
}

// enclosingSignature finds the signature of the innermost function
// enclosing n.
func enclosingSignature(info *types.Info, n ast.Node, parents map[ast.Node]ast.Node) *types.Signature {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p.(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return funcSig(info, p)
		}
	}
	// n may be the body of the function handed to checkBody; the caller
	// bounded parents at that body, so climbing ran out. Return nil: the
	// return statement belongs to the scanned function itself, whose
	// boxing (if any) the call sites observe.
	return nil
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isSliceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// HotpathReport computes the hotalloc verdict of every marked function
// in the units. "proven" is transitive: a marked function's verdict is
// the worst own verdict among the marked functions reachable from it
// through same-unit calls, itself included. A marked function calling
// an audited marked function is itself only audited — its dynamic
// allocation count may be nonzero through the callee — so the
// AllocsPerRun harness can require measured == 0 for exactly the proven
// set (static dominates dynamic).
func HotpathReport(units []*Unit) ([]Site, error) {
	var sites siteSet
	for _, u := range units {
		h := newHotallocCtx(u)
		own := make(map[ast.Node]int) // verdict rank of the function's own body
		callees := make(map[ast.Node][]ast.Node)
		for _, node := range h.hot {
			body, sig := h.funcOf(node)
			t := &tally{unit: u, directive: AllocDirective}
			h.checkBody(body, sig, t.report)
			own[node] = t.rank()
			ast.Inspect(body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := staticCallee(h.Info, call); fn != nil {
						if d, ok := h.decls[fn]; ok && h.isHot[d] {
							callees[node] = append(callees[node], d)
						}
					}
				}
				return true
			})
		}
		for _, node := range h.hot {
			rank := 0
			seen := make(map[ast.Node]bool)
			var visit func(n ast.Node)
			visit = func(n ast.Node) {
				if seen[n] {
					return
				}
				seen[n] = true
				rank = max(rank, own[n])
				for _, c := range callees[n] {
					visit(c)
				}
			}
			visit(node)
			var fn *types.Func
			if d, ok := node.(*ast.FuncDecl); ok {
				fn, _ = h.Info.Defs[d.Name].(*types.Func)
			}
			pos := u.Fset.Position(node.Pos())
			sites.add(Site{Name: funcName(fn, pos.Line), File: pos.Filename, Line: pos.Line, Verdict: verdicts[rank]})
		}
	}
	return sites.sorted(), nil
}
