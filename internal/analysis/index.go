package analysis

// index.go holds the facts about one unit that more than one analyzer
// reads. The index is built once, on the unit's first use, and every
// analyzer and report builder running over the unit shares it:
//
//   - the non-test files;
//   - every function declaration, with test-file declarations marked;
//   - the Step-shaped functions (declarations and literals), in source
//     order;
//   - the lines that carry each directive.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// unitIndex is the shared per-unit index. Like the Loader, it is not
// safe for concurrent use.
type unitIndex struct {
	*Unit
	files []*ast.File // non-test files only

	// decls maps every declared function of the unit to its declaration;
	// funcs lists them in source order, and test marks the ones declared
	// in _test.go files.
	decls map[*types.Func]*ast.FuncDecl
	funcs []*types.Func
	test  map[*types.Func]bool

	steps []*stepFunc

	directives map[string]map[string]map[int]bool // kind -> file -> lines
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
		decls:      make(map[*types.Func]*ast.FuncDecl),
		test:       make(map[*types.Func]bool),
		directives: make(map[string]map[string]map[int]bool),
	}
	for _, f := range u.Files {
		test := IsTestFile(u.Fset, f.Pos())
		if !test {
			x.files = append(x.files, f)
		}
		x.collectFuncs(f, test)
	}
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
