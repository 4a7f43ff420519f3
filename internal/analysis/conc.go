package analysis

// conc.go is the concurrency-effect layer beneath two of the
// concurrency analyzers (chanprotocol, lockorder) and globalwrite's
// worker roots. Each unit has one context, built on first use over the
// unit's index (index.go), from the non-test files:
//
//   - goroutine spawns, with each `go` statement resolved to its body
//     (a function literal, or a same-unit declaration);
//   - per-channel operation lists (make/send/receive/close/select arm),
//     where a channel's identity is the struct field or variable that
//     owns it — local aliases of a field (`ch := make(...)`,
//     `p.wake[w] = ch`, `for _, ch := range p.wake`) unify to the field,
//     so a send through a range variable and a receive through a
//     captured local are recognized as the same channel;
//   - select arms tagged blocking/non-blocking by whether their select
//     carries a default arm.
//
// The paper's model needs these facts: Def 3.11 assumes a fair scheduler
// over node activations with constant work per activation, which the
// engine realizes as a fixed pool of worker goroutines parked on wake
// channels. The layer lets the analyzers prove that realization keeps
// its side of the bargain — wakes cannot block the round owner, no lock
// is held across a park — instead of assuming it. That the workers stop
// is checked dynamically, by testutil.NoLeak.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ConcDirective is the concurrency allowlist comment:
// //fssga:conc(reason) suppresses a chanprotocol/lockorder/atomicmix
// finding on its own line or the line below. The parenthesized
// reason is mandatory, mirroring //fssga:alloc.
const ConcDirective = "//fssga:conc"

// chanOpKind classifies one channel operation.
type chanOpKind uint8

const (
	chanMake chanOpKind = iota
	chanSend
	chanRecv
	chanClose
)

// A chanOp is one operation on a channel identity.
type chanOp struct {
	kind chanOpKind
	pos  token.Pos
	// capExpr is the capacity argument of a make, nil when unbuffered.
	capExpr ast.Expr
	// nonBlocking marks sends/receives that are the comm of a select arm
	// whose select has a default clause.
	nonBlocking bool
	// spawn is the spawn site whose body lexically contains the
	// operation, nil outside goroutine bodies.
	spawn *spawnSite
}

// chanFacts aggregates every operation on one channel identity.
type chanFacts struct {
	name string
	ops  []chanOp
}

func (f *chanFacts) byKind(k chanOpKind) []chanOp {
	var out []chanOp
	for _, op := range f.ops {
		if op.kind == k {
			out = append(out, op)
		}
	}
	return out
}

// A spawnSite is one `go` statement with its statically resolved body.
type spawnSite struct {
	stmt *ast.GoStmt
	// body is the spawned code: the literal's body for `go func(){...}()`,
	// the callee's body for `go f()` when f is declared in the unit, nil
	// when the callee is dynamic or crosses the unit boundary.
	body *ast.BlockStmt
}

// concCtx is the per-unit concurrency-effect summary shared by the
// concvet analyzers. Test files are excluded wholesale: the contracts
// govern production spawns and channels, and test harnesses (including
// the leak harness itself) legitimately spawn throwaway goroutines.
type concCtx struct {
	*unitIndex

	// alias maps a local channel-typed variable to the struct field it
	// stores into or loads from, so field channels keep one identity.
	alias map[types.Object]types.Object

	chans  map[types.Object]*chanFacts
	spawns []*spawnSite

	// selectDefault maps each comm statement of a select arm to whether
	// its select has a default clause; statements absent from the map are
	// not select arms at all.
	selectDefault map[ast.Stmt]bool
}

// newConcCtx builds the concurrency-effect summary of one unit; the
// unit's conc method memoizes it.
func newConcCtx(x *unitIndex) *concCtx {
	c := &concCtx{
		unitIndex:     x,
		alias:         make(map[types.Object]types.Object),
		chans:         make(map[types.Object]*chanFacts),
		selectDefault: make(map[ast.Stmt]bool),
	}
	c.collectAliases()
	c.collectSelects()
	c.collectSpawns()
	c.collectChanOps()
	return c
}

// objOf resolves an identifier to its object (use or def).
func (c *concCtx) objOf(id *ast.Ident) types.Object {
	if obj := c.Info.Uses[id]; obj != nil {
		return obj
	}
	return c.Info.Defs[id]
}

// fieldOf returns the struct field a selector expression selects, or nil.
func (c *concCtx) fieldOf(e ast.Expr) *types.Var {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := c.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// rawTarget resolves an lvalue-ish expression to its owning object
// without alias substitution: the field for selectors (indexing into a
// field keeps the field's identity), the variable for identifiers.
func (c *concCtx) rawTarget(e ast.Expr) types.Object {
	for {
		e = unparen(e)
		switch x := e.(type) {
		case *ast.Ident:
			return c.objOf(x)
		case *ast.SelectorExpr:
			if f := c.fieldOf(x); f != nil {
				return f
			}
			return c.objOf(x.Sel)
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// target resolves an expression to its channel/lock identity, following
// local-variable aliases to the field they mirror.
func (c *concCtx) target(e ast.Expr) types.Object {
	obj := c.rawTarget(e)
	for i := 0; i < 10; i++ { // path-compress without cycling
		next, ok := c.alias[obj]
		if !ok || next == obj {
			break
		}
		obj = next
	}
	return obj
}

// chanTyped reports whether the expression's static type is a channel.
func (c *concCtx) chanTyped(e ast.Expr) bool {
	tv, ok := c.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// collectAliases records which local channel variables mirror a struct
// field, in either direction: `p.f[i] = ch` and `ch := p.f[i]` alias ch
// to f, and `for _, ch := range p.f` aliases the range variable.
func (c *concCtx) collectAliases() {
	link := func(a, b ast.Expr) {
		ra, rb := c.rawTarget(a), c.rawTarget(b)
		if ra == nil || rb == nil || ra == rb {
			return
		}
		if !chanish(ra.Type()) || !chanish(rb.Type()) {
			return
		}
		fa := isStructField(ra)
		fb := isStructField(rb)
		switch {
		case fa && !fb:
			c.alias[rb] = ra
		case fb && !fa:
			c.alias[ra] = rb
		}
	}
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						link(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					link(n.Value, n.X)
				}
			}
			return true
		})
	}
}

// isStructField reports whether obj is a struct field.
func isStructField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField()
}

// chanish reports whether t is a channel or a container of channels —
// the shapes a channel identity flows through (slice/array/map element,
// pointer).
func chanish(t types.Type) bool {
	if t == nil {
		return false
	}
	for {
		switch u := t.Underlying().(type) {
		case *types.Chan:
			return true
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Pointer:
			t = u.Elem()
		default:
			return false
		}
	}
}

// collectSelects maps each select arm's comm statement to whether its
// select has a default clause.
func (c *concCtx) collectSelects() {
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			hasDefault := false
			for _, cl := range sel.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			for _, cl := range sel.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					c.selectDefault[cc.Comm] = hasDefault
				}
			}
			return true
		})
	}
}

// collectSpawns records every `go` statement with its resolved body.
func (c *concCtx) collectSpawns() {
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			sp := &spawnSite{stmt: g}
			if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
				sp.body = lit.Body
			} else if fn := staticCallee(c.Info, g.Call); fn != nil {
				if decl, ok := c.decls[fn]; ok {
					sp.body = decl.Body
				}
			}
			c.spawns = append(c.spawns, sp)
			return true
		})
	}
}

// enclosingSpawn returns the spawn site whose body lexically contains
// the node, or nil.
func (c *concCtx) enclosingSpawn(n ast.Node) *spawnSite {
	for p := c.parents[n]; p != nil; p = c.parents[p] {
		for _, sp := range c.spawns {
			if lit, ok := unparen(sp.stmt.Call.Fun).(*ast.FuncLit); ok && p == lit {
				return sp
			}
		}
	}
	// `go f()` bodies are the declaration of f; ops inside are found by
	// matching the enclosing declaration against resolved spawn bodies.
	for p := c.parents[n]; p != nil; p = c.parents[p] {
		if fd, ok := p.(*ast.FuncDecl); ok {
			for _, sp := range c.spawns {
				if sp.body != nil && sp.body == fd.Body {
					return sp
				}
			}
		}
	}
	return nil
}

// facts returns (creating on demand) the fact sheet of one channel
// identity.
func (c *concCtx) facts(obj types.Object) *chanFacts {
	f := c.chans[obj]
	if f == nil {
		f = &chanFacts{name: obj.Name()}
		c.chans[obj] = f
	}
	return f
}

// addOp records one channel operation against the identity of e.
// Unresolvable channel expressions (results of calls, map loads) are
// dropped: the analyzers treat absence of facts as "cannot prove".
func (c *concCtx) addOp(e ast.Expr, op chanOp) {
	obj := c.target(e)
	if obj == nil {
		return
	}
	op.spawn = c.enclosingSpawn(e)
	f := c.facts(obj)
	f.ops = append(f.ops, op)
}

// collectChanOps walks the non-test files once, recording every channel
// make, send, receive and close against its channel identity.
func (c *concCtx) collectChanOps() {
	info := c.Info
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				c.addOp(n.Chan, chanOp{
					kind:        chanSend,
					pos:         n.Pos(),
					nonBlocking: c.nonBlocking(n),
				})

			case *ast.UnaryExpr:
				if n.Op != token.ARROW {
					return true
				}
				c.addOp(n.X, chanOp{
					kind:        chanRecv,
					pos:         n.Pos(),
					nonBlocking: c.nonBlocking(n),
				})

			case *ast.RangeStmt:
				if c.chanTyped(n.X) {
					c.addOp(n.X, chanOp{kind: chanRecv, pos: n.Pos()})
				}

			case *ast.CallExpr:
				b, ok := calleeOf(info, n).(*types.Builtin)
				if !ok || len(n.Args) == 0 {
					return true
				}
				switch b.Name() {
				case "close":
					c.addOp(n.Args[0], chanOp{kind: chanClose, pos: n.Pos()})
				case "make":
					if tv, ok := info.Types[n]; ok && tv.Type != nil {
						if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
							op := chanOp{kind: chanMake, pos: n.Pos()}
							if len(n.Args) > 1 {
								op.capExpr = n.Args[1]
							}
							c.recordMake(n, op)
						}
					}
				}
			}
			return true
		})
	}
}

// recordMake attributes a channel make to the identity it is assigned
// into (`ch := make(...)`, `p.stop = make(...)`, or a composite-literal
// field), falling back to dropping unattributable makes.
func (c *concCtx) recordMake(call *ast.CallExpr, op chanOp) {
	switch p := c.parents[call].(type) {
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if unparen(rhs) == call && i < len(p.Lhs) {
				c.addOp(p.Lhs[i], op)
				return
			}
		}
	case *ast.KeyValueExpr:
		if key, ok := p.Key.(*ast.Ident); ok && unparen(p.Value) == call {
			if lit, ok := c.parents[p].(*ast.CompositeLit); ok {
				if obj := c.compositeField(lit, key); obj != nil {
					f := c.facts(obj)
					f.ops = append(f.ops, op)
					return
				}
			}
		}
	}
}

// compositeField resolves a keyed composite-literal entry to the struct
// field it initializes.
func (c *concCtx) compositeField(lit *ast.CompositeLit, key *ast.Ident) types.Object {
	if obj := c.Info.Uses[key]; obj != nil {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

// nonBlocking reports whether a send statement or receive expression is
// (part of) the comm of a select arm whose select has a default clause:
// it climbs from n to the nearest enclosing statement (n itself when it
// is one) and looks that statement up among the select arms.
func (c *concCtx) nonBlocking(n ast.Node) bool {
	for p := n; p != nil; p = c.parents[p] {
		if s, ok := p.(ast.Stmt); ok {
			return c.selectDefault[s]
		}
	}
	return false
}
