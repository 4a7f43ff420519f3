package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// unparen strips any number of parentheses around e.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeOf resolves the object a call expression statically invokes:
// a *types.Func for function and method calls, a *types.Builtin for
// builtins, nil when the callee is dynamic (a function-typed value).
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	fun := unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.IndexExpr: // generic instantiation F[T](...)
		fun2, ok := unparen(fun.X).(*ast.Ident)
		if !ok {
			if sel, ok := unparen(fun.X).(*ast.SelectorExpr); ok {
				return info.Uses[sel.Sel]
			}
			return nil
		}
		return info.Uses[fun2]
	case *ast.IndexListExpr: // F[T1, T2](...)
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
		if sel, ok := unparen(fun.X).(*ast.SelectorExpr); ok {
			return info.Uses[sel.Sel]
		}
		return nil
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// staticCallee resolves a call to the declared function or method it
// statically invokes, or nil for builtins and dynamic calls. Calls on an
// instantiation of a generic function or type resolve to per-instance
// objects; staticCallee maps them back to their origin, the object the
// declaration defines, so analyses that follow calls into declarations
// or key summaries by callee see one object per declaration.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, ok := calleeOf(info, call).(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// pkgLevelFunc returns the called package-level function (no receiver)
// and its package path, or nil.
func pkgLevelFunc(info *types.Info, call *ast.CallExpr) (*types.Func, string) {
	fn, ok := calleeOf(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil, ""
	}
	return fn, fn.Pkg().Path()
}

// rootIdent unwraps selectors, indexing, stars and parens down to the
// base identifier of an lvalue expression (x in x.f[i].g), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isPackageLevelVar reports whether obj is a package-level variable (of
// any package in the analysis universe).
func isPackageLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// fssgaViewPkg reports whether a package path is the FSSGA engine
// package holding the View type (the real module path, or a fixture
// stand-in named fssga).
func fssgaViewPkg(path string) bool {
	return path == "repro/internal/fssga" || path == "fssga" || strings.HasSuffix(path, "/fssga")
}

// ptrToNamed returns the named type T when typ is *T and T's object is
// called name inside a package satisfying pkgOK.
func ptrToNamed(typ types.Type, name string, pkgOK func(string) bool) *types.Named {
	ptr, ok := typ.(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil || !pkgOK(obj.Pkg().Path()) {
		return nil
	}
	return named
}

// recvNamed returns the named type T of a method on T or *T, or nil.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// methodOf reports whether fn is a method on T or *T where T's object is
// called name inside a package satisfying pkgOK.
func methodOf(fn *types.Func, name string, pkgOK func(string) bool) bool {
	recv := recvNamed(fn)
	if recv == nil {
		return false
	}
	obj := recv.Obj()
	return obj.Name() == name && obj.Pkg() != nil && pkgOK(obj.Pkg().Path())
}

// funcSig returns the signature of a function declaration or literal,
// or nil.
func funcSig(info *types.Info, fn ast.Node) *types.Signature {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		if obj, ok := info.Defs[fn.Name].(*types.Func); ok {
			return obj.Type().(*types.Signature)
		}
	case *ast.FuncLit:
		if sig, ok := info.TypeOf(fn).(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// isStepSignature reports whether sig is an FSSGA transition-function
// signature: func(self S, view *fssga.View[S], rnd *rand.Rand) S. This
// is the shape the engine invokes concurrently with scratch-backed
// views, so it is the anchor for the viewpure and globalwrite passes.
func isStepSignature(sig *types.Signature) bool {
	if sig == nil || sig.Params().Len() != 3 || sig.Results().Len() != 1 {
		return false
	}
	if !types.Identical(sig.Params().At(0).Type(), sig.Results().At(0).Type()) {
		return false
	}
	if ptrToNamed(sig.Params().At(1).Type(), "View", fssgaViewPkg) == nil {
		return false
	}
	if ptrToNamed(sig.Params().At(2).Type(), "Rand", func(p string) bool { return p == "math/rand" }) == nil {
		return false
	}
	return true
}

// readonlyViewMethods is the observation API of fssga.View: the only
// methods a transition function may invoke on its view.
var readonlyViewMethods = map[string]bool{
	"Empty":        true,
	"DegreeCapped": true,
	"CountState":   true,
	"Count":        true,
	"CountMod":     true,
	"Any":          true,
	"AnyState":     true,
	"None":         true,
	"All":          true,
	"Exactly":      true,
	"ForEach":      true,
}

// parentMap records each node's immediate parent within one subtree.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// containsObject reports whether the subtree uses the given object.
func containsObject(info *types.Info, root ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
