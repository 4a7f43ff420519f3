package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// shardsafe proves the shard pool's write discipline at the source
// level. The parallel engine's determinism rests on an ownership
// argument (shard.go): workers claim disjoint chunks of the round's
// work off an atomic cursor, read only the immutable pre-round states,
// and write only the change buffer of the chunk they claimed — the
// commit applies the buffers after the barrier — so the result is
// bit-identical to serial execution for any worker count and schedule. The race detector can only witness the
// schedules it happens to see; this pass rejects violations on every
// schedule.
//
// A worker round body is a function literal or a method of the shape
// the supervisor runs on the pool:
//
//	func(pool *shardPool, worker int) { ... }
//	func (net *Network[S]) body(pool *shardPool, worker int) { ... }
//
// A method's receiver counts as captured, as a literal's enclosing
// variables do. Inside the body, shardsafe enforces:
//
//   - element stores into captured (or package-level) slices and arrays
//     must use an index or bounds derived from the worker's shard claim
//     (a value flowing from a method call on the pool), or target a
//     per-worker structure (a local derived from the worker index); a
//     body-local alias of captured state (b := net.bufs) is held to
//     the same rule;
//   - the read-side snapshot — a captured variable named snapshot/cur,
//     defined from the engine's states vector, or reached through a
//     .states selector, or an alias of one — is never written, derived
//     index or not;
//   - captured variables are never reassigned (per-worker scratch must
//     not be retained across rounds) and captured struct fields are
//     never written except through shard-derived element stores;
//   - builtin copy into a captured slice, or an alias of one, requires
//     shard-derived slice bounds;
//   - package-level variables are never written (the worker-side twin
//     of globalwrite's reachability rule).
//
// The derivation analysis is a flow-insensitive may-analysis: a
// variable is shard-derived if any of its assignments flows from the
// pool claim, which deliberately accepts the engine's clamp idiom
// (hi := lo+span; if hi > n { hi = n }).
var Shardsafe = &Analyzer{
	Name: "shardsafe",
	Doc:  "shard-pool worker bodies write next only at shard-derived indices, never write the snapshot, and retain no captured scratch",
	Run:  runShardsafe,
}

func runShardsafe(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if tv, ok := pass.Info.Types[n]; ok && isWorkerSig(tv.Type) {
					checkWorkerBody(pass, n.Type, n.Body, n.Pos(), n.End())
					return false
				}
			case *ast.FuncDecl:
				if fn, ok := pass.Info.Defs[n.Name].(*types.Func); ok && n.Recv != nil && n.Body != nil && isWorkerSig(fn.Type()) {
					checkWorkerBody(pass, n.Type, n.Body, n.Name.Pos(), n.End())
					return false
				}
			}
			return true
		})
	}
	return nil
}

// isWorkerSig reports whether t has the worker-round-body shape:
// func(pool *shardPool, worker int) with no results, the signature the
// shard pool runs.
func isWorkerSig(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	if ptrToNamed(sig.Params().At(0).Type(), "shardPool", fssgaViewPkg) == nil {
		return false
	}
	b, ok := sig.Params().At(1).Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// checkWorkerBody runs the ownership checks over one worker round body
// with signature ftype, whose own declarations lie in [from, to).
func checkWorkerBody(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt, from, to token.Pos) {
	info := pass.Info
	pool, worker := paramObjs(info, ftype)
	if pool == nil || worker == nil {
		return
	}

	// derived: values flowing from the shard claim (a call through the
	// pool). owned: per-worker structures (values flowing from the
	// worker index).
	poolCall := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		root := rootIdent(call.Fun)
		return root != nil && info.Uses[root] == pool
	}
	derived := taintedObjs(info, body, func(rhs ast.Expr, derived map[types.Object]bool) bool {
		return exprTainted(info, rhs, derived, poolCall)
	})
	owned := taintedObjs(info, body, func(rhs ast.Expr, owned map[types.Object]bool) bool {
		return exprTainted(info, rhs, owned, func(e ast.Expr) bool {
			id, ok := e.(*ast.Ident)
			return ok && info.Uses[id] == worker
		})
	})
	derivedExpr := func(e ast.Expr) bool { return exprTainted(info, e, derived, poolCall) }
	captured := func(obj types.Object) bool {
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || isPackageLevelVar(v) {
			return false
		}
		return v.Pos() < from || v.Pos() >= to
	}

	// aliases: body-local slices, maps and pointers reached from a
	// captured or owned variable, or from another alias, by selectors,
	// indexing or slicing (b := net.bufs, n := next). Element stores
	// through an alias are checked as stores through its root; one
	// formed at claimed indices (row := next[lo:hi]) is the claim's own
	// and is no alias. snaps: variables that reach the read-side
	// snapshot that way (s := net.states), claimed indices or not.
	aliasRoot := func(rhs ast.Expr) (types.Object, ast.Expr) {
		switch info.TypeOf(rhs).Underlying().(type) {
		case *types.Slice, *types.Map, *types.Pointer:
		default:
			return nil, nil
		}
		if sl, ok := unparen(rhs).(*ast.SliceExpr); ok {
			rhs = sl.X
		}
		if root := rootIdent(rhs); root != nil && info.Uses[root] != nil {
			return info.Uses[root], rhs
		}
		return nil, nil
	}
	aliases := taintedObjs(info, body, func(rhs ast.Expr, aliases map[types.Object]bool) bool {
		root, _ := aliasRoot(rhs)
		return root != nil && (captured(root) || owned[root] || aliases[root]) && !derivedExpr(rhs)
	})
	snaps := taintedObjs(info, body, func(rhs ast.Expr, snaps map[types.Object]bool) bool {
		root, path := aliasRoot(rhs)
		return root != nil && (snaps[root] || (captured(root) || owned[root] || aliases[root]) && readOnlyLvalue(info, path, root))
	})
	// what names the target of a store through obj in a finding:
	// captured state, or an alias of it.
	what := func(obj types.Object) string {
		if aliases[obj] && !captured(obj) {
			return fmt.Sprintf("%q, which aliases captured state,", obj.Name())
		}
		return fmt.Sprintf("captured %q", obj.Name())
	}

	checkStore := func(lhs ast.Expr, pos token.Pos) {
		root := rootIdent(lhs)
		if root == nil || root.Name == "_" {
			return
		}
		obj := info.ObjectOf(root)
		if obj == nil {
			return
		}
		if isPackageLevelVar(obj) {
			pass.Reportf(pos, "write to package-level variable %q inside a worker round body: workers race on it on some schedule", root.Name)
			return
		}
		// Element store vs whole-variable / field write.
		if idx, ok := unparen(lhs).(*ast.IndexExpr); ok {
			if !captured(obj) && !owned[obj] && !aliases[obj] && !snaps[obj] {
				return // body-local scratch: hotalloc polices its creation
			}
			if snaps[obj] || readOnlyLvalue(info, idx.X, obj) {
				pass.Reportf(pos, "write to the read-side snapshot %q inside a worker round body: rounds read the snapshot and write only next", root.Name)
				return
			}
			if owned[obj] || rootOwned(info, idx.X, owned) {
				return // per-worker structure, any index is the worker's own
			}
			if !derivedExpr(idx.Index) {
				pass.Reportf(pos, "store into %s at an index not derived from the worker's claimed shard range", what(obj))
			}
			return
		}
		if !captured(obj) {
			return
		}
		if unparen(lhs) == root || isStarOfRoot(lhs, root) {
			pass.Reportf(pos, "captured %q is reassigned inside a worker round body: per-worker scratch must not be retained across rounds", root.Name)
			return
		}
		if rootOwned(info, lhs, owned) || owned[obj] {
			return
		}
		pass.Reportf(pos, "write to field of captured %q inside a worker round body: round results must flow through shard-derived stores into next", root.Name)
	}

	checkCopyDst := func(dst ast.Expr) {
		root := rootIdent(dst)
		if root == nil {
			return
		}
		obj := info.ObjectOf(root)
		if obj == nil || (!captured(obj) && !isPackageLevelVar(obj) && !aliases[obj] && !snaps[obj]) || owned[obj] {
			return
		}
		if snaps[obj] || readOnlyLvalue(info, dst, obj) {
			pass.Reportf(dst.Pos(), "copy into the read-side snapshot %q inside a worker round body", root.Name)
			return
		}
		if sl, ok := unparen(dst).(*ast.SliceExpr); ok {
			if sl.Low != nil && sl.High != nil && derivedExpr(sl.Low) && derivedExpr(sl.High) {
				return
			}
		}
		pass.Reportf(dst.Pos(), "copy into %s without shard-derived bounds: the worker may write outside its claimed range", what(obj))
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				checkStore(l, l.Pos())
			}
		case *ast.IncDecStmt:
			checkStore(n.X, n.X.Pos())
		case *ast.CallExpr:
			if b, ok := calleeOf(info, n).(*types.Builtin); ok && b.Name() == "copy" && len(n.Args) == 2 {
				checkCopyDst(n.Args[0])
			}
		}
		return true
	})
}

// paramObjs resolves the two parameter objects of a worker body.
func paramObjs(info *types.Info, ftype *ast.FuncType) (pool, worker types.Object) {
	var objs []types.Object
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			objs = append(objs, info.Defs[name])
		}
	}
	if len(objs) != 2 {
		return nil, nil
	}
	return objs[0], objs[1]
}

// readOnlyLvalue reports whether an lvalue reaches the round's read-side
// snapshot: its root is named snapshot/cur, or a selector component on
// the path is the engine's states vector.
func readOnlyLvalue(info *types.Info, e ast.Expr, rootObj types.Object) bool {
	if name := rootObj.Name(); name == "snapshot" || name == "cur" {
		return true
	}
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			if x.Sel.Name == "states" {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// rootOwned reports whether the lvalue path is reached through a
// worker-owned variable (e.g. sc.dense[i] where sc := net.workers[w]).
func rootOwned(info *types.Info, e ast.Expr, owned map[types.Object]bool) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := info.ObjectOf(root)
	return obj != nil && owned[obj]
}

// isStarOfRoot reports whether lhs is *root (a pointer-wide overwrite of
// a captured pointer's target).
func isStarOfRoot(lhs ast.Expr, root *ast.Ident) bool {
	star, ok := unparen(lhs).(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := unparen(star.X).(*ast.Ident)
	return ok && id == root
}

// taintedObjs computes the flow-insensitive closure of objects an
// assignment may give a tainted value: an object is tainted when any
// assignment gives it a right-hand side rhs with flows(rhs, tainted),
// tainted being the objects found so far. Flow-insensitivity
// deliberately keeps a variable tainted across the clamp idiom (hi = n
// after hi := lo+span).
func taintedObjs(info *types.Info, body ast.Node, flows func(rhs ast.Expr, tainted map[types.Object]bool) bool) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			a, ok := n.(*ast.AssignStmt)
			if !ok || len(a.Lhs) != len(a.Rhs) {
				return true
			}
			for i, lhs := range a.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil || tainted[obj] {
					continue
				}
				if flows(a.Rhs[i], tainted) {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return tainted
}

// exprTainted reports whether e contains a seed expression or a use of a
// tainted object.
func exprTainted(info *types.Info, e ast.Expr, tainted map[types.Object]bool, seed func(ast.Expr) bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if ex, ok := n.(ast.Expr); ok && seed(ex) {
			found = true
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && tainted[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
