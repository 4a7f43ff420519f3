package analysis

// index.go holds the facts about one unit that more than one analyzer
// reads. The index is built once, on the unit's first use, and every
// analyzer and report builder running over the unit shares it:
//
//   - the non-test files, and one parent map over them;
//   - every function declaration, with test-file declarations marked;
//   - the Step-shaped functions (declarations and literals), in source
//     order;
//   - the same-unit static call graph over the non-test declarations,
//     each edge marked in-frame when the call runs in the caller's own
//     frame — not inside a `go` statement, and not inside a function
//     literal that is not invoked on the spot;
//   - the declarations reachable from the unit's entry points;
//   - the lines that carry each directive;
//   - the unit's one concurrency context (conc.go), built on its own
//     first use.
//
// Test files are excluded from the call graph wholesale: the contracts
// govern production code, and test harnesses are not entry points of
// it.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// unitIndex is the shared per-unit index. Like the Loader, it is not
// safe for concurrent use.
type unitIndex struct {
	*Unit
	files   []*ast.File // non-test files only
	parents map[ast.Node]ast.Node

	// decls maps every declared function of the unit to its declaration;
	// funcs lists them in source order, and test marks the ones declared
	// in _test.go files.
	decls map[*types.Func]*ast.FuncDecl
	funcs []*types.Func
	test  map[*types.Func]bool

	steps []*stepFunc

	// calls lists each non-test declaration's distinct same-unit callees
	// in order of first call; reach marks the declarations reachable from
	// exported functions and methods, init, and functions used as values.
	calls map[*types.Func][]callEdge
	reach map[*types.Func]bool

	directives map[string]map[string]map[int]bool // kind -> file -> lines
	concCtx    *concCtx
}

// A callEdge is one caller-to-callee edge of the static call graph.
// inFrame is set when at least one of the calls runs in the caller's own
// frame.
type callEdge struct {
	callee  *types.Func
	inFrame bool
}

// A stepFunc is one function with the Automaton.Step signature: a
// declaration with a body, or a function literal.
type stepFunc struct {
	decl *ast.FuncDecl // nil for a literal
	lit  *ast.FuncLit  // nil for a declaration
	fn   *types.Func   // the declared function, nil for a literal
	sig  *types.Signature
	body *ast.BlockStmt
	pos  token.Pos // a declaration's name, a literal's func keyword
	test bool      // in a _test.go file
}

// index returns the unit's index, building it on first use.
func (u *Unit) index() *unitIndex {
	if u.idx == nil {
		u.idx = newUnitIndex(u)
	}
	return u.idx
}

// conc returns the unit's concurrency context, building it on first use.
func (u *Unit) conc() *concCtx {
	x := u.index()
	if x.concCtx == nil {
		x.concCtx = newConcCtx(x)
	}
	return x.concCtx
}

// directiveAt reports whether the line of pos, or the line above it,
// carries the directive: the placement that suppresses a diagnostic or
// marks a function literal.
func (u *Unit) directiveAt(pos token.Pos, directive string) bool {
	p := u.Fset.Position(pos)
	lines := u.index().directiveLines(directive)[p.Filename]
	return lines[p.Line] || lines[p.Line-1]
}

func newUnitIndex(u *Unit) *unitIndex {
	x := &unitIndex{
		Unit:       u,
		parents:    make(map[ast.Node]ast.Node),
		decls:      make(map[*types.Func]*ast.FuncDecl),
		test:       make(map[*types.Func]bool),
		calls:      make(map[*types.Func][]callEdge),
		reach:      make(map[*types.Func]bool),
		directives: make(map[string]map[string]map[int]bool),
	}
	for _, f := range u.Files {
		test := IsTestFile(u.Fset, f.Pos())
		if !test {
			x.files = append(x.files, f)
			for n, p := range parentMap(f) {
				x.parents[n] = p
			}
		}
		x.collectFuncs(f, test)
	}
	x.buildCallGraph()
	return x
}

// collectFuncs indexes one file's declarations and Step-shaped
// functions in source order.
func (x *unitIndex) collectFuncs(f *ast.File, test bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			fn, ok := x.Info.Defs[n.Name].(*types.Func)
			if !ok {
				return true
			}
			x.decls[fn] = n
			x.funcs = append(x.funcs, fn)
			x.test[fn] = test
			if sig := fn.Type().(*types.Signature); isStepSignature(sig) && n.Body != nil {
				x.steps = append(x.steps, &stepFunc{decl: n, fn: fn, sig: sig, body: n.Body, pos: n.Name.Pos(), test: test})
			}
		case *ast.FuncLit:
			if sig, ok := x.Info.TypeOf(n).(*types.Signature); ok && isStepSignature(sig) {
				x.steps = append(x.steps, &stepFunc{lit: n, sig: sig, body: n.Body, pos: n.Pos(), test: test})
			}
		}
		return true
	})
}

// buildCallGraph records the static calls between non-test declarations
// (calls inside literals attribute to the enclosing declaration) and
// computes reachability from the unit's entry points: exported
// functions and methods, init functions, and functions whose value
// escapes into a non-call position (stored or passed, so an unknown
// caller may invoke them). Reachability follows every edge.
func (x *unitIndex) buildCallGraph() {
	var roots []*types.Func
	for _, fn := range x.funcs {
		if x.test[fn] {
			continue
		}
		if fn.Exported() || fn.Name() == "init" {
			roots = append(roots, fn)
		}
		body := x.decls[fn].Body
		if body == nil {
			continue
		}
		at := make(map[*types.Func]int)
		var edges []callEdge
		x.walkFrames(body, func(n ast.Node, inFrame bool) {
			callee := x.callee(n)
			if callee == nil {
				return
			}
			if i, ok := at[callee]; ok {
				edges[i].inFrame = edges[i].inFrame || inFrame
				return
			}
			at[callee] = len(edges)
			edges = append(edges, callEdge{callee, inFrame})
		})
		x.calls[fn] = edges
	}
	// A declaration used as a value (method value, function passed to a
	// registry or to runtime.AddCleanup) can be called from anywhere;
	// root it too.
	for _, f := range x.files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := x.Info.Uses[id].(*types.Func)
			if !ok || !x.inUnit(fn.Origin()) {
				return true
			}
			if call, ok := x.callParent(id); !ok || unparen(call.Fun) != ast.Expr(id) {
				if sel, isSel := x.parents[id].(*ast.SelectorExpr); isSel && sel.Sel == id {
					if call2, ok2 := x.callParent(sel); ok2 && unparen(call2.Fun) == ast.Expr(sel) {
						return true // plain method call, not a value use
					}
				}
				roots = append(roots, fn.Origin())
			}
			return true
		})
	}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if x.reach[fn] {
			return
		}
		x.reach[fn] = true
		for _, e := range x.calls[fn] {
			visit(e.callee)
		}
	}
	for _, r := range roots {
		visit(r)
	}
}

// inUnit reports whether fn is declared in the unit's non-test files.
func (x *unitIndex) inUnit(fn *types.Func) bool {
	_, ok := x.decls[fn]
	return ok && !x.test[fn]
}

// callee returns the function a call node statically invokes when it is
// declared in the unit's non-test files, nil otherwise.
func (x *unitIndex) callee(n ast.Node) *types.Func {
	if call, ok := n.(*ast.CallExpr); ok {
		if fn := staticCallee(x.Info, call); fn != nil && x.inUnit(fn) {
			return fn
		}
	}
	return nil
}

// walkFrames visits every node under root in source order, with whether
// it runs in the frame root belongs to: a `go` statement's call runs on
// a new goroutine, and a function literal's body runs in the caller's
// frame only when the literal is invoked on the spot.
func (x *unitIndex) walkFrames(root ast.Node, visit func(n ast.Node, inFrame bool)) {
	var walk func(n ast.Node, inFrame bool)
	walk = func(n ast.Node, inFrame bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				return true
			}
			visit(m, inFrame)
			switch m := m.(type) {
			case *ast.GoStmt:
				if inFrame {
					walk(m.Call, false)
					return false
				}
			case *ast.FuncLit:
				if call, ok := x.callParent(m); inFrame && (!ok || unparen(call.Fun) != ast.Expr(m)) {
					walk(m.Body, false)
					return false
				}
			}
			return true
		})
	}
	walk(root, true)
}

// callParent returns the call expression whose subtree directly holds n
// (through parens), if any.
func (x *unitIndex) callParent(n ast.Node) (*ast.CallExpr, bool) {
	p := x.parents[n]
	for {
		pe, ok := p.(*ast.ParenExpr)
		if !ok {
			break
		}
		p = x.parents[pe]
	}
	call, ok := p.(*ast.CallExpr)
	return call, ok
}

// enclosingDecl climbs to the function declaration lexically containing
// the node (function literals attribute to their enclosing declaration).
func (x *unitIndex) enclosingDecl(n ast.Node) *types.Func {
	for p := x.parents[n]; p != nil; p = x.parents[p] {
		if fd, ok := p.(*ast.FuncDecl); ok {
			if obj, ok := x.Info.Defs[fd.Name].(*types.Func); ok {
				return obj
			}
			return nil
		}
	}
	return nil
}

// directiveLines maps each file of the unit to the lines carrying the
// directive, parsing the comments on the first request for that kind.
func (x *unitIndex) directiveLines(kind string) map[string]map[int]bool {
	if lines, ok := x.directives[kind]; ok {
		return lines
	}
	lines := make(map[string]map[int]bool)
	for _, f := range x.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, ok := directiveReason(c.Text, kind); !ok {
					continue
				}
				pos := x.Fset.Position(c.Pos())
				if lines[pos.Filename] == nil {
					lines[pos.Filename] = make(map[int]bool)
				}
				lines[pos.Filename][pos.Line] = true
			}
		}
	}
	x.directives[kind] = lines
	return lines
}
