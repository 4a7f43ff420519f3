package analysis

// summary.go computes the summary-based interprocedural layer: a
// network-size taint over one type-checked unit. The FSSGA model
// (Pritchard & Vempala, Theorem 3.7) requires observation caps to be
// constants of the *automaton*, independent of the network it runs
// on; symcontract therefore needs to know, at an observation call
// site, whether a cap argument may derive from the topology size.
//
// The analysis is flow-insensitive and context-insensitive ("may
// derive"): a single worklist propagates taint through assignments,
// returns (summarised on the *types.Func object), call arguments
// (summarised on parameter objects), composite literals and struct
// field writes, to a fixed point over the unit. Sources are the size
// accessors of the graph package. Coarseness errs towards reporting:
// a cap should be a literal constant, so any taint at all is a
// modelling smell worth an audit.

import (
	"go/ast"
	"go/types"
	"strings"
)

// graphPkg reports whether a package path is the topology package (the
// real module path or a fixture stand-in named graph).
func graphPkg(path string) bool {
	return path == "repro/internal/graph" || path == "graph" || strings.HasSuffix(path, "/graph")
}

// sizeSourceMethods are graph.Graph accessors whose results scale with
// the network.
var sizeSourceMethods = map[string]bool{
	"NumNodes":  true,
	"NumEdges":  true,
	"Cap":       true,
	"Degree":    true,
	"MaxDegree": true,
	"AliveIDs":  true,
}

// isSizeSource reports whether fn is a network-size accessor: a method
// of graph.Graph from sizeSourceMethods.
func isSizeSource(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Graph" || obj.Pkg() == nil || !graphPkg(obj.Pkg().Path()) {
		return false
	}
	return sizeSourceMethods[fn.Name()]
}

// A TaintSummary records which objects of one unit may carry a value
// derived from the network size. Function objects stand for their
// results; variable objects cover locals, parameters and struct
// fields.
type TaintSummary struct {
	unit    *Unit
	tainted map[types.Object]bool
}

// Tainted reports whether obj may hold a network-size-derived value.
func (s *TaintSummary) Tainted(obj types.Object) bool {
	return obj != nil && s.tainted[obj]
}

// ExprTainted reports whether evaluating e may yield a value derived
// from the network size: it contains a size-source call, a call to a
// function whose summary is tainted, or a use of a tainted object.
func (s *TaintSummary) ExprTainted(e ast.Expr) bool {
	if e == nil {
		return false
	}
	info := s.unit.Info
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its body runs later, not as part of e's value
		case *ast.CallExpr:
			if fn := staticCallee(info, n); fn != nil {
				if isSizeSource(fn) || s.tainted[fn] {
					found = true
					return false
				}
			}
		case *ast.Ident:
			if obj := info.ObjectOf(n); obj != nil && s.tainted[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// ComputeNSizeTaint builds the unit's network-size taint summary.
func ComputeNSizeTaint(u *Unit) *TaintSummary {
	s := &TaintSummary{unit: u, tainted: make(map[types.Object]bool)}
	for changed := true; changed; {
		changed = false
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if s.propagate(n) {
					changed = true
				}
				return true
			})
		}
	}
	return s
}

// mark taints obj, reporting whether that is new information.
func (s *TaintSummary) mark(obj types.Object) bool {
	if obj == nil || s.tainted[obj] {
		return false
	}
	s.tainted[obj] = true
	return true
}

// lhsObject resolves the object an assignment target writes: the
// variable for identifiers and the field object for selector targets
// (field-sensitive across all instances, which is exactly the
// summary granularity constructors like `auto{cap: g.NumNodes()}`
// need). Index targets taint the container object.
func (s *TaintSummary) lhsObject(e ast.Expr) types.Object {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return s.unit.Info.ObjectOf(x)
	case *ast.SelectorExpr:
		if sel := s.unit.Info.Selections[x]; sel != nil {
			return sel.Obj()
		}
		return s.unit.Info.ObjectOf(x.Sel)
	case *ast.IndexExpr:
		return s.lhsObject(x.X)
	case *ast.StarExpr:
		return s.lhsObject(x.X)
	}
	return nil
}

// enclosingFuncObj maps a FuncDecl to its *types.Func.
func (s *TaintSummary) funcObj(d *ast.FuncDecl) *types.Func {
	if obj, ok := s.unit.Info.Defs[d.Name].(*types.Func); ok {
		return obj
	}
	return nil
}

// propagate applies one taint rule at node n, reporting progress.
func (s *TaintSummary) propagate(n ast.Node) bool {
	info := s.unit.Info
	changed := false
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				if s.ExprTainted(n.Rhs[i]) {
					if s.mark(s.lhsObject(lhs)) {
						changed = true
					}
				}
			}
		} else if len(n.Rhs) == 1 && s.ExprTainted(n.Rhs[0]) {
			// x, y := f() with a tainted callee: taint every target.
			for _, lhs := range n.Lhs {
				if s.mark(s.lhsObject(lhs)) {
					changed = true
				}
			}
		}

	case *ast.ValueSpec:
		for i, name := range n.Names {
			switch {
			case len(n.Values) == len(n.Names):
				if s.ExprTainted(n.Values[i]) && s.mark(info.ObjectOf(name)) {
					changed = true
				}
			case len(n.Values) == 1:
				if s.ExprTainted(n.Values[0]) && s.mark(info.ObjectOf(name)) {
					changed = true
				}
			}
		}

	case *ast.RangeStmt:
		// Ranging over a tainted container taints the drawn values.
		if s.ExprTainted(n.X) {
			for _, v := range []ast.Expr{n.Key, n.Value} {
				if v == nil {
					continue
				}
				if s.mark(s.lhsObject(v)) {
					changed = true
				}
			}
		}

	case *ast.CompositeLit:
		// auto{cap: g.NumNodes()} taints the cap field object.
		st, ok := structOf(info.TypeOf(n))
		if !ok {
			break
		}
		for i, el := range n.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if !s.ExprTainted(kv.Value) {
					continue
				}
				if id, ok := kv.Key.(*ast.Ident); ok {
					if s.mark(fieldByName(st, id.Name)) {
						changed = true
					}
				}
			} else if s.ExprTainted(el) && i < st.NumFields() {
				if s.mark(st.Field(i)) {
					changed = true
				}
			}
		}

	case *ast.CallExpr:
		// A tainted argument taints the callee's parameter object so
		// taint crosses into functions defined in this unit.
		fn := staticCallee(info, n)
		if fn == nil {
			break
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			break
		}
		for i, arg := range n.Args {
			if i >= sig.Params().Len() {
				break
			}
			if s.ExprTainted(arg) && s.mark(sig.Params().At(i)) {
				changed = true
			}
		}

	case *ast.FuncDecl:
		// A tainted return taints the function's summary object.
		if n.Body == nil {
			break
		}
		fo := s.funcObj(n)
		if fo == nil || s.tainted[fo] {
			break
		}
		ast.Inspect(n.Body, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false // returns inside literals belong to the literal
			}
			ret, ok := m.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				if s.ExprTainted(res) {
					if s.mark(fo) {
						changed = true
					}
					return false
				}
			}
			return true
		})
	}
	return changed
}

// structOf unwraps a (possibly pointer-to) named struct type.
func structOf(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// fieldByName finds a struct field object.
func fieldByName(st *types.Struct, name string) types.Object {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}
