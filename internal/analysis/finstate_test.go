package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// FuzzFinstateWalk runs finstate's boundedness walk over arbitrary
// well-typed function bodies: every loop and labelled statement list
// must reach its fixed point, and the walk must return without a
// panic. Bodies that do not type-check are skipped, as the loader never
// hands an ill-typed unit to an analyzer.
func FuzzFinstateWalk(f *testing.F) {
	seeds := []string{
		"if a > 0 { return a }\nreturn b",
		"for i := 0; i < a; i++ { b += i; if b > 9 { break } }\nreturn b",
		"switch a {\ncase 1:\n\treturn 2\ncase 3, 4:\n\ta++\nfallthrough\ndefault:\n\ta--\n}\nreturn a",
		"for { if ok { continue }; break }\nreturn a",
		"L:\nfor i := range xs { for range xs { if ok { break L }; a = i; goto L } }\nreturn a",
		"if ok && a > b || !ok { return a }\nreturn b",
		"select {}",
		"switch v := any(a).(type) {\ncase int:\n\treturn v\ndefault:\n\treturn 0\n}",
		"again:\nif a > 9 { return a }\na++\ngoto again",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		src := "package p\nfunc f(a, b int, ok bool, xs []int) int {\n" + body + "\n}"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "x.go", src, 0)
		if err != nil {
			t.Skip()
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Implicits:  map[ast.Node]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		if _, err := new(types.Config).Check("p", fset, []*ast.File{file}, info); err != nil {
			t.Skip()
		}
		decl := file.Decls[0].(*ast.FuncDecl)
		pass := &Pass{Unit: &Unit{Fset: fset, Info: info}, Report: func(Diagnostic) {}}
		checkBoundedness(pass, info.Defs[decl.Name].Type().(*types.Signature), decl.Body)
	})
}
