package analysis

// conc.go is the concurrency-effect layer beneath the four concvet
// analyzers (goroleak, chanprotocol, lockorder, atomicmix). One walk of
// the unit's non-test files produces interprocedural summaries:
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
//     carries a default arm;
//   - a same-unit static call graph with the set of functions reachable
//     from the unit's exported entry points, which is how goroleak
//     decides whether a close site is reachable from an owner's
//     Close/Stop-style API.
//
// The paper's model needs these facts: Def 3.11 assumes a fair scheduler
// over node activations with constant work per activation, which the
// engine realizes as a fixed pool of worker goroutines parked on wake
// channels. The layer lets the analyzers prove that realization keeps
// its side of the bargain — workers are stoppable, wakes cannot block
// the round owner, locks are ranked — instead of assuming it.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ConcDirective is the concurrency allowlist comment:
// //fssga:conc(reason) suppresses a goroleak/chanprotocol/lockorder/
// atomicmix finding on its own line or the line below. The parenthesized
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
	// fn is the enclosing function declaration (literals attribute to
	// the declaration lexically containing them), nil at package scope.
	fn *types.Func
	// spawn is the spawn site whose body lexically contains the
	// operation, nil outside goroutine bodies.
	spawn *spawnSite
}

// chanFacts aggregates every operation on one channel identity.
type chanFacts struct {
	obj  types.Object
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
	// fn is the declaration lexically containing the statement.
	fn *types.Func
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
	pass    *Pass
	files   []*ast.File // non-test files only
	parents map[ast.Node]ast.Node
	decls   map[*types.Func]*ast.FuncDecl

	// alias maps a local channel-typed variable to the struct field it
	// stores into or loads from, so field channels keep one identity.
	alias map[types.Object]types.Object

	chans  map[types.Object]*chanFacts
	spawns []*spawnSite

	// calls is the same-unit static call graph; reach marks declarations
	// reachable from exported functions/methods or init.
	calls map[*types.Func]map[*types.Func]bool
	reach map[*types.Func]bool

	// selectDefault maps each comm statement of a select arm to whether
	// its select has a default clause; statements absent from the map are
	// not select arms at all.
	selectDefault map[ast.Stmt]bool
}

// newConcCtx builds the concurrency-effect summary of one unit.
func newConcCtx(pass *Pass) *concCtx {
	c := &concCtx{
		pass:          pass,
		decls:         make(map[*types.Func]*ast.FuncDecl),
		alias:         make(map[types.Object]types.Object),
		chans:         make(map[types.Object]*chanFacts),
		calls:         make(map[*types.Func]map[*types.Func]bool),
		reach:         make(map[*types.Func]bool),
		selectDefault: make(map[ast.Stmt]bool),
	}
	for _, f := range pass.Files {
		if IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		c.files = append(c.files, f)
	}
	c.parents = make(map[ast.Node]ast.Node)
	for _, f := range c.files {
		for n, p := range parentMap(f) {
			c.parents[n] = p
		}
	}
	c.collectDecls()
	c.collectAliases()
	c.collectSelects()
	c.collectSpawns()
	c.collectChanOps()
	c.buildCallGraph()
	return c
}

// collectDecls indexes the unit's function declarations.
func (c *concCtx) collectDecls() {
	for _, f := range c.files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := c.pass.Info.Defs[fn.Name].(*types.Func); ok {
				c.decls[obj] = fn
			}
		}
	}
}

// objOf resolves an identifier to its object (use or def).
func (c *concCtx) objOf(id *ast.Ident) types.Object {
	if obj := c.pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return c.pass.Info.Defs[id]
}

// fieldOf returns the struct field a selector expression selects, or nil.
func (c *concCtx) fieldOf(e ast.Expr) *types.Var {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := c.pass.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
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
	tv, ok := c.pass.Info.Types[e]
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
			sp := &spawnSite{stmt: g, fn: c.enclosingDecl(g)}
			if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
				sp.body = lit.Body
			} else if fn := staticCallee(c.pass.Info, g.Call); fn != nil {
				if decl, ok := c.decls[fn]; ok {
					sp.body = decl.Body
				}
			}
			c.spawns = append(c.spawns, sp)
			return true
		})
	}
}

// enclosingDecl climbs to the function declaration lexically containing
// the node (function literals attribute to their enclosing declaration).
func (c *concCtx) enclosingDecl(n ast.Node) *types.Func {
	for p := c.parents[n]; p != nil; p = c.parents[p] {
		if fd, ok := p.(*ast.FuncDecl); ok {
			if obj, ok := c.pass.Info.Defs[fd.Name].(*types.Func); ok {
				return obj
			}
			return nil
		}
	}
	return nil
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
		f = &chanFacts{obj: obj, name: obj.Name()}
		c.chans[obj] = f
	}
	return f
}

// addOp records one channel operation against the identity of e.
// Unresolvable channel expressions (results of calls, map loads) are
// dropped: the analyzers treat absence of facts as "cannot prove".
func (c *concCtx) addOp(e ast.Expr, op chanOp) *chanFacts {
	obj := c.target(e)
	if obj == nil {
		return nil
	}
	op.fn = c.enclosingDecl(e)
	op.spawn = c.enclosingSpawn(e)
	f := c.facts(obj)
	f.ops = append(f.ops, op)
	return f
}

// collectChanOps walks the non-test files once, recording every channel
// make, send, receive and close against its channel identity.
func (c *concCtx) collectChanOps() {
	info := c.pass.Info
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				c.addOp(n.Chan, chanOp{
					kind:        chanSend,
					pos:         n.Pos(),
					nonBlocking: c.commNonBlocking(n),
				})

			case *ast.UnaryExpr:
				if n.Op != token.ARROW {
					return true
				}
				c.addOp(n.X, chanOp{
					kind:        chanRecv,
					pos:         n.Pos(),
					nonBlocking: c.recvNonBlocking(n),
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
					op.fn = c.enclosingDecl(call)
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
	if obj := c.pass.Info.Uses[key]; obj != nil {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

// commNonBlocking reports whether a send/assign/expr statement is the
// comm of a select arm whose select has a default clause.
func (c *concCtx) commNonBlocking(s ast.Stmt) bool {
	return c.selectDefault[s]
}

// recvNonBlocking reports whether a receive expression is (part of) the
// comm of a select arm whose select has a default clause.
func (c *concCtx) recvNonBlocking(e ast.Expr) bool {
	for p := c.parents[e]; p != nil; p = c.parents[p] {
		if s, ok := p.(ast.Stmt); ok {
			if hasDefault, isArm := c.selectDefault[s]; isArm {
				return hasDefault
			}
			return false
		}
	}
	return false
}

// selectArmOf returns the comm-clause statement enclosing e and whether
// that select has a default arm; isArm is false for ops outside selects.
func (c *concCtx) selectArmOf(n ast.Node) (hasDefault, isArm bool) {
	for p := n; p != nil; p = c.parents[p] {
		if s, ok := p.(ast.Stmt); ok {
			if d, arm := c.selectDefault[s]; arm {
				return d, true
			}
		}
		if _, ok := p.(*ast.SelectStmt); ok {
			return false, false
		}
	}
	return false, false
}

// buildCallGraph records same-unit static calls (calls inside literals
// attribute to the enclosing declaration) and computes reachability from
// the unit's entry points: exported functions and methods, init
// functions, and functions whose value escapes into a non-call position
// (stored or passed, so an unknown caller may invoke them).
func (c *concCtx) buildCallGraph() {
	info := c.pass.Info
	for obj, decl := range c.decls {
		if decl.Body == nil {
			continue
		}
		edges := make(map[*types.Func]bool)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := staticCallee(info, call); fn != nil {
				if _, inUnit := c.decls[fn]; inUnit {
					edges[fn] = true
				}
			}
			return true
		})
		c.calls[obj] = edges
	}

	var roots []*types.Func
	for obj := range c.decls {
		if obj.Exported() || obj.Name() == "init" {
			roots = append(roots, obj)
		}
	}
	// A declaration used as a value (method value, function passed to a
	// registry or to runtime.AddCleanup) can be called from anywhere;
	// root it too.
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if _, inUnit := c.decls[fn.Origin()]; !inUnit {
				return true
			}
			if call, ok := c.callParent(id); !ok || unparen(call.Fun) != ast.Expr(id) {
				if sel, isSel := c.parents[id].(*ast.SelectorExpr); isSel && sel.Sel == id {
					if call2, ok2 := c.callParent(sel); ok2 && unparen(call2.Fun) == ast.Expr(sel) {
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
		if c.reach[fn] {
			return
		}
		c.reach[fn] = true
		for callee := range c.calls[fn] {
			visit(callee)
		}
	}
	for _, r := range roots {
		visit(r)
	}
}

// callParent returns the call expression whose subtree directly holds n
// (through parens), if any.
func (c *concCtx) callParent(n ast.Node) (*ast.CallExpr, bool) {
	p := c.parents[n]
	for {
		pe, ok := p.(*ast.ParenExpr)
		if !ok {
			break
		}
		p = c.parents[pe]
	}
	call, ok := p.(*ast.CallExpr)
	return call, ok
}

// closable classifies whether receiving from the channel can be
// released by an owner: it has a close site whose enclosing function is
// reachable from an exported entry point. The second result explains a
// false verdict for diagnostics.
func (c *concCtx) closable(obj types.Object) (ok bool, why string) {
	if obj == nil {
		return false, "the channel cannot be resolved to a field or variable"
	}
	f := c.chans[obj]
	var closes []chanOp
	if f != nil {
		closes = f.byKind(chanClose)
	}
	if len(closes) == 0 {
		return false, "it is never closed in this package"
	}
	for _, cl := range closes {
		if cl.fn == nil || c.reach[cl.fn] {
			return true, ""
		}
	}
	return false, "its close is unreachable from any exported entry point"
}

// chanName renders a channel identity for diagnostics.
func (c *concCtx) chanName(obj types.Object) string {
	if obj == nil {
		return "<unknown>"
	}
	return obj.Name()
}

// A ConcSpawn is one `go` statement in non-test code with its static
// goroutine-lifecycle verdict, as consumed by the goroutine-leak
// cross-check harness in internal/fssga.
type ConcSpawn struct {
	Name string `json:"name"` // enclosing function
	File string `json:"file"`
	Line int    `json:"line"`
	// Verdict is "proven" (goroleak found no obstacle to termination),
	// "audited" (every obstacle carries //fssga:conc) or "flagged"
	// (live obstacles — the gate is red).
	Verdict string `json:"verdict"`
}

// ConcReport computes the goroleak verdict of every spawn site in the
// units. The NoLeak harness requires workloads exercising "proven"
// spawn sites to leave zero goroutines behind (static dominates
// dynamic, exactly as hotalloc's proven set must measure zero allocs).
func ConcReport(units []*Unit) ([]ConcSpawn, error) {
	var out []ConcSpawn
	seen := make(map[string]bool) // file:line, across unit variants
	for _, u := range units {
		pass := &Pass{
			Analyzer: Goroleak,
			Fset:     u.Fset,
			Files:    u.Files,
			Path:     u.Path,
			Pkg:      u.Pkg,
			Info:     u.Info,
		}
		c := newConcCtx(pass)
		sup := suppressedLines(u.Fset, u.Files, ConcDirective)
		for _, sp := range c.spawns {
			raw, live := 0, 0
			c.checkSpawn(sp, func(p token.Pos, format string, args ...any) {
				raw++
				fp := u.Fset.Position(p)
				if m := sup[fp.Filename]; m != nil && (m[fp.Line] || m[fp.Line-1]) {
					return
				}
				live++
			})
			pos := u.Fset.Position(sp.stmt.Pos())
			key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			if seen[key] {
				continue // same file in a test-variant unit
			}
			seen[key] = true
			name := fmt.Sprintf("func@%d", pos.Line)
			if sp.fn != nil {
				name = sp.fn.Name()
				if recv := sp.fn.Type().(*types.Signature).Recv(); recv != nil {
					if rn := recvTypeName(recv.Type()); rn != "" {
						name = rn + "." + name
					}
				}
			}
			verdict := VerdictProven
			if raw > 0 {
				verdict = VerdictAudited
			}
			if live > 0 {
				verdict = VerdictFlagged
			}
			out = append(out, ConcSpawn{
				Name:    name,
				File:    pos.Filename,
				Line:    pos.Line,
				Verdict: verdict,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out, nil
}

// recvTypeName extracts the receiver's named-type name ("" otherwise).
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
