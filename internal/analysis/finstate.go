package analysis

// Finstate proves the finite-state half of the FSSGA contract
// (Pritchard & Vempala, Section 2): the state space reachable from a
// transition function must not grow with the input. Two checks:
//
//   - the state type itself must have a finite value domain — no
//     slices, maps, pointers, strings, channels or interfaces inside
//     the Step result type (an n-sized payload in the state is the
//     classic way a "finite-state" protocol cheats);
//
//   - returned state values must not carry unbounded arithmetic. A
//     walk over the Step body's statements tracks each variable's
//     level in the three-point lattice Bounded ⊏ StateMagnitude ⊏
//     Growing: constants and automaton configuration are Bounded, the
//     incoming self/neighbour states are StateMagnitude (returning
//     them verbatim cannot enlarge the reachable set), and additive
//     arithmetic (+, -, *, <<, ++) on anything at StateMagnitude or
//     above is Growing. `x % k` re-bounds, as does a clamp — each
//     condition refines the fact on its true and false exits, so
//     `if x > cap { x = cap }` leaves x Bounded on both paths. A
//     return whose value is Growing is reported: iterated over rounds,
//     that state diverges and the automaton is no longer finite-state.
//
// The boundedness rules are deliberately one-sided (an upper-bound
// clamp is accepted as bounding) and trust calls to return Bounded
// values: the dynamic witness enumeration in internal/mc covers the
// residue. Conservative in the direction that matters — every flagged
// site really does perform unclamped arithmetic on state.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

var Finstate = &Analyzer{
	Name: "finstate",
	Doc:  "transition functions keep the reachable state space finite: no unbounded arithmetic on state, no n-sized state payloads",
	Run:  runFinstate,
}

// Lattice levels for one variable.
const (
	levelBounded uint8 = iota // constant / configuration-derived
	levelState                // magnitude of an incoming state value
	levelGrowing              // state ⊕ arithmetic: diverges over rounds
)

// boundFact maps objects to their level; absent means Bounded.
type boundFact map[types.Object]uint8

func runFinstate(pass *Pass) error {
	for _, s := range pass.index().steps {
		if s.test {
			continue
		}
		checkStateType(pass, s.pos, s.sig.Results().At(0).Type())
		checkBoundedness(pass, s.sig, s.body)
	}
	return nil
}

// checkStateType verifies the state type has a finite value domain.
func checkStateType(pass *Pass, pos token.Pos, t types.Type) {
	seen := map[types.Type]bool{}
	var visit func(t types.Type, path string)
	visit = func(t types.Type, path string) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Basic:
			if u.Info()&types.IsString != 0 {
				pass.Reportf(pos, "state type component %s is a string; strings have an unbounded value domain — use a fixed-width encoding (finite-state contract, Section 2)", path)
			}
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				fld := u.Field(i)
				visit(fld.Type(), path+"."+fld.Name())
			}
		case *types.Array:
			visit(u.Elem(), path+"[i]")
		case *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Pointer, *types.Interface:
			if _, isTP := t.(*types.TypeParam); isTP {
				return
			}
			pass.Reportf(pos, "state type component %s is a %s; states must draw from a finite, n-independent domain (finite-state contract, Section 2)", path, typeKind(u))
		}
	}
	if _, isTP := t.(*types.TypeParam); isTP {
		return // generic wrappers constrain S at instantiation sites
	}
	visit(t, "state")
}

func typeKind(t types.Type) string {
	switch t.(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	case *types.Chan:
		return "channel"
	case *types.Signature:
		return "function"
	case *types.Pointer:
		return "pointer"
	case *types.Interface:
		return "interface"
	}
	return "reference type"
}

// checkBoundedness walks one Step body on the level lattice and
// reports returns of Growing values, each judged at the fixed point.
func checkBoundedness(pass *Pass, sig *types.Signature, body *ast.BlockStmt) {
	be := &boundEval{info: pass.Info, gotos: map[string]boundFact{}, returns: map[*ast.ReturnStmt]boundFact{}}
	entry := boundFact{}
	if self := sig.Params().At(0); self != nil {
		entry[self] = levelState
	}
	be.stmts(body.List, entry)
	ast.Inspect(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if before := be.returns[ret]; ok && before != nil {
			for _, e := range ret.Results {
				if be.eval(e, before) == levelGrowing {
					pass.Reportf(e.Pos(), "returned state value grows without bound (unclamped arithmetic on state); reduce modulo a constant or clamp before returning (finite-state contract, Section 2)")
				}
			}
		}
		return true
	})
}

// boundEval evaluates expression levels and statement transfer for the
// boundedness lattice, and walks a Step body's statements to the fixed
// point. Go's control flow is structured, so the walk needs no block
// graph: a loop, or a statement list holding a label, is walked again
// until its entry fact stops growing, and every fact only grows, so
// the walk ends at the least fixed point.
type boundEval struct {
	info *types.Info
	// frames stacks the statements that break, continue and
	// fallthrough leave, innermost last.
	frames []*flowFrame
	// gotos joins, per label, the facts its gotos carry.
	gotos map[string]boundFact
	// returns holds the fact before each reachable return.
	returns map[*ast.ReturnStmt]boundFact
}

// A flowFrame is a loop, switch or select, with the facts that leave
// it by break, reach its next lap by continue, or fall into its next
// case.
type flowFrame struct {
	label           string
	loop            bool
	brk, cont, fall boundFact
}

// joinFact merges src into dst, which it may reuse; a nil fact is
// unreachable code.
func joinFact(dst, src boundFact) boundFact {
	if dst == nil {
		return maps.Clone(src)
	}
	for k, v := range src {
		if v > dst[k] {
			dst[k] = v
		}
	}
	return dst
}

// sameFact reports whether two facts agree, reachability included.
func sameFact(a, b boundFact) bool {
	return (a == nil) == (b == nil) && maps.Equal(a, b)
}

// stmts walks a statement list from fact f and returns the fact at its
// normal completion. A list holding labels is walked again until the
// facts its gotos carry stop growing.
func (be *boundEval) stmts(list []ast.Stmt, f boundFact) boundFact {
	var labels []string
	for _, s := range list {
		for l, ok := s.(*ast.LabeledStmt); ok; l, ok = l.Stmt.(*ast.LabeledStmt) {
			labels = append(labels, l.Label.Name)
		}
	}
	for {
		seen := make([]boundFact, len(labels))
		for i, l := range labels {
			seen[i] = maps.Clone(be.gotos[l])
		}
		out := maps.Clone(f)
		for _, s := range list {
			out = be.stmt(s, out)
		}
		grew := false
		for i, l := range labels {
			grew = grew || !sameFact(seen[i], be.gotos[l])
		}
		if !grew {
			return out
		}
	}
}

// stmt walks one statement from fact f, which it may reuse, and returns
// the fact at its normal completion: nil when control cannot fall out
// of it.
func (be *boundEval) stmt(s ast.Stmt, f boundFact) boundFact {
	label := ""
	for l, ok := s.(*ast.LabeledStmt); ok; l, ok = s.(*ast.LabeledStmt) {
		f = joinFact(f, be.gotos[l.Label.Name])
		label, s = l.Label.Name, l.Stmt
	}
	if f == nil {
		return nil
	}
	switch s := s.(type) {
	case nil:
		return f
	case *ast.BlockStmt:
		return be.stmts(s.List, f)
	case *ast.ReturnStmt:
		be.returns[s] = joinFact(be.returns[s], f)
		return nil
	case *ast.BranchStmt:
		be.branch(s, f)
		return nil
	case *ast.IfStmt:
		t, e := be.cond(s.Cond, be.stmt(s.Init, f))
		t = be.stmts(s.Body.List, t)
		if s.Else != nil {
			e = be.stmt(s.Else, e)
		}
		return joinFact(t, e)
	case *ast.ForStmt:
		return be.loop(label, be.stmt(s.Init, f), s.Body, s.Post, func(head boundFact) (boundFact, boundFact) {
			if s.Cond == nil {
				return head, nil
			}
			return be.cond(s.Cond, head)
		})
	case *ast.RangeStmt:
		// The key and value are assigned on every entry to the body.
		return be.loop(label, f, s.Body, nil, func(head boundFact) (boundFact, boundFact) {
			head = be.transfer(s, head)
			return maps.Clone(head), head
		})
	case *ast.SwitchStmt:
		f = be.stmt(s.Init, f)
		if s.Tag != nil {
			f = be.transfer(s.Tag, f)
		}
		return be.clauses(label, s.Body, f)
	case *ast.TypeSwitchStmt:
		return be.clauses(label, s.Body, be.transfer(s.Assign, be.stmt(s.Init, f)))
	case *ast.SelectStmt:
		fr := be.push(label, false)
		var out boundFact
		for _, c := range s.Body.List {
			c := c.(*ast.CommClause)
			out = joinFact(out, be.stmts(c.Body, be.stmt(c.Comm, maps.Clone(f))))
		}
		be.pop()
		return joinFact(out, fr.brk)
	}
	// Assignments, declarations, expression, send, inc-dec, defer and go
	// statements: straight-line.
	return be.transfer(s, f)
}

// loop walks a for or range statement entered with fact f. test splits
// a lap's head fact into the body's and the exit's; the body, then
// post, is walked again until the head fact stops growing.
func (be *boundEval) loop(label string, f boundFact, body *ast.BlockStmt, post ast.Stmt, test func(head boundFact) (boundFact, boundFact)) boundFact {
	head := f
	for {
		in, exit := test(maps.Clone(head))
		fr := be.push(label, true)
		back := joinFact(be.stmts(body.List, in), fr.cont)
		be.pop()
		next := joinFact(maps.Clone(f), be.stmt(post, back))
		if sameFact(next, head) {
			return joinFact(exit, fr.brk)
		}
		head = next
	}
}

// clauses walks the cases of a switch or type switch, dispatched from
// fact f. Case expressions refine nothing; without a default, control
// may skip every case.
func (be *boundEval) clauses(label string, body *ast.BlockStmt, f boundFact) boundFact {
	fr := be.push(label, false)
	var out boundFact
	dflt := false
	for _, c := range body.List {
		c := c.(*ast.CaseClause)
		dflt = dflt || c.List == nil
		in := joinFact(maps.Clone(f), fr.fall)
		fr.fall = nil
		out = joinFact(out, be.stmts(c.Body, in))
	}
	be.pop()
	if !dflt {
		out = joinFact(out, f)
	}
	return joinFact(out, fr.brk)
}

// branch hands fact f to the target of a goto, break, continue or
// fallthrough.
func (be *boundEval) branch(s *ast.BranchStmt, f boundFact) {
	if s.Tok == token.GOTO {
		be.gotos[s.Label.Name] = joinFact(be.gotos[s.Label.Name], f)
		return
	}
	for i := len(be.frames) - 1; i >= 0; i-- {
		fr := be.frames[i]
		switch {
		case s.Tok == token.FALLTHROUGH:
			fr.fall = f
		case s.Label != nil && s.Label.Name != fr.label, s.Tok == token.CONTINUE && !fr.loop:
			continue
		case s.Tok == token.BREAK:
			fr.brk = joinFact(fr.brk, f)
		default:
			fr.cont = joinFact(fr.cont, f)
		}
		return
	}
}

func (be *boundEval) push(label string, loop bool) *flowFrame {
	fr := &flowFrame{label: label, loop: loop}
	be.frames = append(be.frames, fr)
	return fr
}

func (be *boundEval) pop() { be.frames = be.frames[:len(be.frames)-1] }

// cond splits fact f at a branch condition into the facts on its true
// and false exits, refining on one atomic comparison at a time.
func (be *boundEval) cond(e ast.Expr, f boundFact) (boundFact, boundFact) {
	switch x := unparen(e).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			xt, xf := be.cond(x.X, f)
			yt, yf := be.cond(x.Y, xt)
			return yt, joinFact(xf, yf)
		case token.LOR:
			xt, xf := be.cond(x.X, f)
			yt, yf := be.cond(x.Y, xf)
			return joinFact(xt, yt), yf
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			xt, xf := be.cond(x.X, f)
			return xf, xt
		}
	}
	if f == nil {
		return nil, nil
	}
	leaf := unparen(e)
	f = be.transfer(leaf, f)
	return be.refine(leaf, true, maps.Clone(f)), be.refine(leaf, false, f)
}

// eval computes the level of expression e under fact f.
func (be *boundEval) eval(e ast.Expr, f boundFact) uint8 {
	if e == nil {
		return levelBounded
	}
	if tv, ok := be.info.Types[e]; ok && tv.Value != nil {
		return levelBounded
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return be.eval(x.X, f)
	case *ast.Ident:
		if obj := be.info.ObjectOf(x); obj != nil {
			return f[obj]
		}
		return levelBounded
	case *ast.SelectorExpr:
		if id := rootIdent(x); id != nil {
			if obj := be.info.ObjectOf(id); obj != nil {
				return f[obj]
			}
		}
		return levelBounded
	case *ast.IndexExpr:
		return be.eval(x.X, f)
	case *ast.StarExpr:
		return be.eval(x.X, f)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return levelBounded
		}
		return be.eval(x.X, f)
	case *ast.CompositeLit:
		lv := levelBounded
		for _, el := range x.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if l := be.eval(v, f); l > lv {
				lv = l
			}
		}
		return lv
	case *ast.CallExpr:
		return be.evalCall(x, f)
	case *ast.BinaryExpr:
		return be.evalBinary(x, f)
	case *ast.TypeAssertExpr:
		return be.eval(x.X, f)
	}
	return levelBounded
}

func (be *boundEval) evalCall(call *ast.CallExpr, f boundFact) uint8 {
	// Conversions preserve the operand's level: T(x) renames the
	// domain, it does not bound it.
	if tv, ok := be.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return be.eval(call.Args[0], f)
	}
	if b, ok := calleeOf(be.info, call).(*types.Builtin); ok {
		switch b.Name() {
		case "min":
			// Bounded above by its smallest bounded argument.
			lv := levelGrowing
			for _, a := range call.Args {
				if l := be.eval(a, f); l < lv {
					lv = l
				}
			}
			return lv
		case "max":
			lv := levelBounded
			for _, a := range call.Args {
				if l := be.eval(a, f); l > lv {
					lv = l
				}
			}
			return lv
		}
	}
	// Other calls are trusted to return bounded values (rnd.Intn,
	// observation counts — themselves capped by symcontract).
	return levelBounded
}

func (be *boundEval) evalBinary(x *ast.BinaryExpr, f boundFact) uint8 {
	lx, ly := be.eval(x.X, f), be.eval(x.Y, f)
	hi := lx
	if ly > hi {
		hi = ly
	}
	lo := lx
	if ly < lo {
		lo = ly
	}
	switch x.Op {
	case token.REM:
		// x % k is bounded by k.
		return ly
	case token.AND:
		// Masking bounds by the smaller operand's domain.
		return lo
	case token.OR, token.XOR, token.SHR, token.QUO:
		// Stay within the wider operand's domain (no growth).
		return hi
	case token.ADD, token.SUB, token.MUL, token.SHL:
		if hi >= levelState {
			return levelGrowing
		}
		return levelBounded
	case token.LAND, token.LOR, token.EQL, token.NEQ,
		token.LSS, token.GTR, token.LEQ, token.GEQ:
		return levelBounded
	}
	return hi
}

// transfer applies the effect of one statement, condition or switch
// tag on the fact; for a range statement, the key and value
// assignment. ForEach folds anywhere inside n apply here too, those in
// a deferred literal included.
func (be *boundEval) transfer(n ast.Node, f boundFact) boundFact {
	switch n := n.(type) {
	case *ast.AssignStmt:
		be.assign(n, f)
	case *ast.IncDecStmt:
		// x++ iterated over rounds diverges; refinement on the
		// enclosing loop condition restores Bounded where a constant
		// bound exists.
		be.writeTarget(n.X, levelGrowing, f)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					lv := levelBounded
					if i < len(vs.Values) {
						lv = be.eval(vs.Values[i], f)
					}
					be.setIdent(name, lv, f)
				}
			}
		}
	case *ast.RangeStmt:
		if n.Key != nil {
			be.writeTarget(n.Key, levelBounded, f)
		}
		if n.Value != nil {
			be.writeTarget(n.Value, be.eval(n.X, f), f)
		}
	}
	// Fold callbacks execute within this node: apply their writes to
	// surviving variables, with element parameters at StateMagnitude.
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := isViewMethod(be.info, call); ok && name == "ForEach" {
			be.foldTransfer(call, f)
		}
		return true
	})
	return f
}

func (be *boundEval) assign(as *ast.AssignStmt, f boundFact) {
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(as.Lhs) == len(as.Rhs) {
			levels := make([]uint8, len(as.Rhs))
			for i := range as.Rhs {
				levels[i] = be.eval(as.Rhs[i], f)
			}
			for i, lhs := range as.Lhs {
				be.writeTarget(lhs, levels[i], f)
			}
		} else {
			// Multi-value call: trusted bounded.
			for _, lhs := range as.Lhs {
				be.writeTarget(lhs, levelBounded, f)
			}
		}
	default:
		// Compound assignment x op= e mirrors the binary operator.
		lx := be.eval(as.Lhs[0], f)
		ly := be.eval(as.Rhs[0], f)
		hi, lo := lx, ly
		if ly > hi {
			hi = ly
		}
		if lx < lo {
			lo = lx
		}
		var lv uint8
		switch as.Tok {
		case token.REM_ASSIGN:
			lv = ly
		case token.AND_ASSIGN:
			lv = lo
		case token.OR_ASSIGN, token.XOR_ASSIGN, token.SHR_ASSIGN, token.QUO_ASSIGN:
			lv = hi
		default: // += -= *= <<=
			lv = hi
			if hi >= levelState {
				lv = levelGrowing
			}
		}
		be.writeTarget(as.Lhs[0], lv, f)
	}
}

// writeTarget updates the fact for an assignment target: strong update
// for plain identifiers, weak (join) update through selectors and
// indexing, where the root object aggregates its components.
func (be *boundEval) writeTarget(lhs ast.Expr, lv uint8, f boundFact) {
	switch x := unparen(lhs).(type) {
	case *ast.Ident:
		be.setIdent(x, lv, f)
	default:
		if id := rootIdent(lhs); id != nil {
			if obj := be.info.ObjectOf(id); obj != nil {
				if lv > f[obj] {
					f[obj] = lv
				}
			}
		}
	}
}

func (be *boundEval) setIdent(id *ast.Ident, lv uint8, f boundFact) {
	if id.Name == "_" {
		return
	}
	obj := be.info.ObjectOf(id)
	if obj == nil {
		return
	}
	if lv == levelBounded {
		delete(f, obj)
	} else {
		f[obj] = lv
	}
}

// foldTransfer applies a ForEach callback's writes to variables that
// outlive it: the callback runs zero or more times, so every write is
// a weak update, with the fold parameters at StateMagnitude. Iterated
// until no level changes, so assignment chains of any length settle;
// levels only rise inside a fold, so this ends.
func (be *boundEval) foldTransfer(call *ast.CallExpr, f boundFact) {
	if len(call.Args) == 0 {
		return
	}
	lit, ok := unparen(call.Args[0]).(*ast.FuncLit)
	if !ok {
		return
	}
	inner := maps.Clone(f)
	for _, fld := range lit.Type.Params.List {
		for _, name := range fld.Names {
			if obj := be.info.Defs[name]; obj != nil {
				inner[obj] = levelState
			}
		}
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			switch m.(type) {
			case *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt, *ast.RangeStmt, *ast.ExprStmt:
			default:
				return true
			}
			before := maps.Clone(inner)
			be.transfer(m, inner)
			// Weak semantics: never lower a level inside a fold.
			for k, v := range before {
				if inner[k] < v {
					inner[k] = v
				}
			}
			for k, v := range inner {
				if before[k] != v {
					changed = true
				}
			}
			return true
		})
	}
	// Export the surviving variables' levels back to the outer fact.
	for k, v := range inner {
		if !k.Pos().IsValid() || insideNode(lit, k.Pos()) {
			continue
		}
		if v > f[k] {
			f[k] = v
		}
	}
}

// refine sharpens the fact on one exit of an atomic condition: where
// `x < B` / `x <= B` holds (or `x > B` / `x >= B` fails), x is
// bounded by B when B itself is Bounded — the clamp idiom.
func (be *boundEval) refine(e ast.Expr, taken bool, f boundFact) boundFact {
	cond, ok := e.(*ast.BinaryExpr)
	if !ok {
		return f
	}
	boundIdent := func(x, bound ast.Expr) {
		id, ok := unparen(x).(*ast.Ident)
		if !ok {
			return
		}
		if be.eval(bound, f) != levelBounded {
			return
		}
		be.setIdent(id, levelBounded, f)
	}
	switch cond.Op {
	case token.LSS, token.LEQ: // x < B true ⇒ x bounded; B < x false ⇒ x bounded
		if taken {
			boundIdent(cond.X, cond.Y)
		} else {
			boundIdent(cond.Y, cond.X)
		}
	case token.GTR, token.GEQ: // x > B false ⇒ x bounded; B > x true ⇒ x bounded
		if taken {
			boundIdent(cond.Y, cond.X)
		} else {
			boundIdent(cond.X, cond.Y)
		}
	case token.EQL:
		if taken {
			boundIdent(cond.X, cond.Y)
			boundIdent(cond.Y, cond.X)
		}
	case token.NEQ:
		if !taken {
			boundIdent(cond.X, cond.Y)
			boundIdent(cond.Y, cond.X)
		}
	}
	return f
}
