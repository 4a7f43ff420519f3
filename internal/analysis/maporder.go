package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maporder flags map-iteration loops whose body leaks the iteration
// order into an ordered artifact: appending to a slice that is never
// subsequently sorted in the same function, concatenating onto a string,
// or writing directly to an ordered sink (an io.Writer-style Write
// method, an encoder, fmt printing, a hash being fed for a digest). Go
// randomizes map iteration order per run, so any of these desynchronizes
// trace.RunLog replay and digest comparison. The sanctioned patterns —
// collect-then-sort, or iterating a pre-sorted key slice — are not
// flagged.
var Maporder = &Analyzer{
	Name:      "maporder",
	Doc:       "forbid map-iteration order leaking into slices, strings, writers or digests without a sort",
	AppliesTo: DeterminismCritical,
	Run:       runMaporder,
}

// orderedSinkMethods are method names that emit data in call order.
var orderedSinkMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Encode":      true,
}

func runMaporder(pass *Pass) error {
	for _, f := range pass.index().files {
		// Track the innermost enclosing function body so the
		// subsequent-sort search has a scope to look in.
		var bodies []ast.Node
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			if n == nil {
				return
			}
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					bodies = append(bodies, n.Body)
					walkChildren(n.Body, walk)
					bodies = bodies[:len(bodies)-1]
				}
				return
			case *ast.FuncLit:
				bodies = append(bodies, n.Body)
				walkChildren(n.Body, walk)
				bodies = bodies[:len(bodies)-1]
				return
			case *ast.RangeStmt:
				if len(bodies) > 0 {
					if t := pass.Info.TypeOf(n.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							checkMapRange(pass, n, bodies[len(bodies)-1])
						}
					}
				}
			}
			walkChildren(n, walk)
		}
		walk(f)
	}
	return nil
}

// walkChildren applies walk to the direct children of n.
func walkChildren(n ast.Node, walk func(ast.Node)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		walk(c)
		return false
	})
}

// checkMapRange inspects one map-range loop for order leaks; encl is the
// innermost enclosing function body, searched for post-loop sorts.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, encl ast.Node) {
	info := pass.Info
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rs, encl, n)
		case *ast.CallExpr:
			fn, ok := calleeOf(info, n).(*types.Func)
			if !ok {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil && orderedSinkMethods[fn.Name()] {
				pass.Reportf(n.Pos(), "map iteration feeds ordered sink %s.%s; iterate a sorted key slice instead (map order is randomized per run)", recvName(n), fn.Name())
				return true
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && sig != nil && sig.Recv() == nil {
				switch fn.Name() {
				case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
					pass.Reportf(n.Pos(), "map iteration emits output via fmt.%s; iterate a sorted key slice instead (map order is randomized per run)", fn.Name())
				}
			}
		}
		return true
	})
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

// checkMapRangeAssign flags appends and string concatenations that
// accumulate map-iteration order into a variable declared outside the
// loop, unless the enclosing function later sorts that variable.
func checkMapRangeAssign(pass *Pass, rs *ast.RangeStmt, encl ast.Node, as *ast.AssignStmt) {
	info := pass.Info
	for i, lhs := range as.Lhs {
		id := rootIdent(lhs)
		if id == nil || id.Name == "_" {
			continue
		}
		obj := info.ObjectOf(id)
		if obj == nil || obj.Pos() == 0 || insideNode(rs, obj.Pos()) {
			continue // loop-local accumulator dies with the iteration
		}
		// String concatenation: s += ... in map order.
		if as.Tok.String() == "+=" {
			if t := info.TypeOf(lhs); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					pass.Reportf(as.Pos(), "string %q concatenates in map-iteration order; iterate a sorted key slice instead", id.Name)
				}
			}
			continue
		}
		// Appends: x = append(x, ...).
		if i >= len(as.Rhs) {
			continue
		}
		call, ok := unparen(as.Rhs[i]).(*ast.CallExpr)
		if !ok {
			continue
		}
		if b, ok := calleeOf(info, call).(*types.Builtin); !ok || b.Name() != "append" {
			continue
		}
		if sortedAfter(info, encl, rs, obj) {
			continue
		}
		pass.Reportf(as.Pos(), "slice %q accumulates map-iteration order and is never sorted afterwards in this function; sort it or iterate sorted keys", id.Name)
	}
}

// insideNode reports whether pos lies within n.
func insideNode(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

// sortedAfter reports whether, after the range loop, the enclosing
// function calls into package sort or slices with obj among the call's
// arguments (e.g. sort.Ints(xs), sort.Slice(xs, less), slices.Sort(xs)).
func sortedAfter(info *types.Info, encl ast.Node, rs *ast.RangeStmt, obj types.Object) bool {
	return sortedAfterPos(info, encl, rs.End(), obj)
}

// sortedAfterPos is sortedAfter anchored on a position: it reports a
// sort/slices call over obj occurring in encl at or after pos. The
// symcontract fold checker shares it to sanction the collect-then-sort
// idiom for ForEach accumulators.
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
