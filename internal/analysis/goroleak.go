package analysis

// goroleak proves that every goroutine the production code spawns has a
// statically visible termination path. The engine's scheduler contract
// (Def 3.11: a fair scheduler eventually delivers every enabled
// activation) only yields liveness if the worker goroutines themselves
// are stoppable — a leaked worker pins its pool, its channels and
// whatever the round body captured. The rules, per spawn in non-test
// code:
//
//   - the spawned body must resolve statically (a function literal or a
//     same-unit declaration); dynamic spawn targets are flagged;
//   - a blocking receive (plain `<-ch`, `range ch`, or a select without
//     default) must be releasable by an owner: some arm's channel has a
//     close site whose enclosing function is reachable from an exported
//     entry point of the unit (Close/Stop-style APIs, or a function
//     value such as a method passed to runtime.AddCleanup — function
//     values count as reachable);
//   - a blocking send inside the goroutine must have a receiver outside
//     the goroutine;
//   - an unconditional loop (`for {}`) must contain a return or break —
//     the escape the releasable receive triggers.
//
// The verdicts are cross-checked dynamically: ConcReport feeds
// TestConcStaticDominatesDynamic in internal/fssga, which asserts that
// workloads touching every statically "proven" spawn site leave zero
// goroutines behind under the testutil.NoLeak stack-diff harness.
// Audited exceptions carry //fssga:conc(reason).

import (
	"go/ast"
	"go/token"
	"sort"
)

// Goroleak is the goroutine-lifecycle analyzer.
var Goroleak = &Analyzer{
	Name:      "goroleak",
	Doc:       "every go statement in non-test code must have a proven termination path (audited exceptions: //fssga:conc(reason))",
	AppliesTo: DeterminismCritical,
	Directive: ConcDirective,
	Run:       runGoroleak,
}

func runGoroleak(pass *Pass) error {
	c := pass.conc()
	for _, sp := range c.spawns {
		c.checkSpawn(sp, pass.Reportf)
	}
	return nil
}

// checkSpawn verifies the termination path of one spawn site, reporting
// each obstacle through report.
func (c *concCtx) checkSpawn(sp *spawnSite, report func(pos token.Pos, format string, args ...any)) {
	if sp.body == nil {
		report(sp.stmt.Pos(), "goroutine target cannot be resolved statically: termination is unprovable")
		return
	}
	ast.Inspect(sp.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			c.checkSpawnSelect(n, report)

		case *ast.UnaryExpr:
			if n.Op != token.ARROW {
				return true
			}
			if _, isArm := c.armOf(n); isArm {
				return true // judged through its select
			}
			if ok, why := c.closable(c.target(n.X)); !ok {
				report(n.Pos(), "goroutine blocks receiving from %q and %s", c.chanName(c.target(n.X)), why)
			}

		case *ast.RangeStmt:
			if !c.chanTyped(n.X) {
				return true
			}
			if ok, why := c.closable(c.target(n.X)); !ok {
				report(n.Pos(), "goroutine ranges over channel %q and %s", c.chanName(c.target(n.X)), why)
			}

		case *ast.SendStmt:
			if c.nonBlocking(n) {
				return true
			}
			if !c.hasOutsideReceiver(sp, n.Chan) {
				report(n.Pos(), "goroutine sends on %q with no receiver outside the goroutine", c.chanName(c.target(n.Chan)))
			}

		case *ast.ForStmt:
			if n.Cond == nil && !containsEscape(n.Body) {
				report(n.Pos(), "goroutine loops forever with no return or break: no termination path")
			}
		}
		return true
	})
}

// checkSpawnSelect judges one select inside a spawned body: with a
// default arm it never blocks; without one, at least one arm must
// receive from an owner-closable channel (a fair scheduler then
// eventually takes that arm once the owner signals).
func (c *concCtx) checkSpawnSelect(sel *ast.SelectStmt, report func(pos token.Pos, format string, args ...any)) {
	arms := 0
	var whys []string
	for _, cl := range sel.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			if ok {
				return // default arm: the select cannot block
			}
			continue
		}
		arms++
		if ch, isRecv := commRecvChan(cc.Comm); isRecv {
			if ok, why := c.closable(c.target(ch)); ok {
				return
			} else {
				whys = append(whys, c.chanName(c.target(ch))+" "+why)
			}
		}
	}
	if arms == 0 {
		report(sel.Pos(), "goroutine blocks on empty select: no termination path")
		return
	}
	sort.Strings(whys)
	msg := "no arm receives at all"
	if len(whys) > 0 {
		msg = whys[0]
	}
	report(sel.Pos(), "goroutine's select has no arm releasable by an owner (%s)", msg)
}

// commRecvChan extracts the channel expression of a receive-shaped comm
// statement (`<-ch`, `v := <-ch`, `v, ok = <-ch`), or reports false.
func commRecvChan(s ast.Stmt) (ast.Expr, bool) {
	var e ast.Expr
	switch s := s.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			e = s.Rhs[0]
		}
	}
	if u, ok := unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X, true
	}
	return nil, false
}

// hasOutsideReceiver reports whether the channel sent on inside sp has
// a receive site outside sp's body.
func (c *concCtx) hasOutsideReceiver(sp *spawnSite, ch ast.Expr) bool {
	obj := c.target(ch)
	if obj == nil {
		return false
	}
	f := c.chans[obj]
	if f == nil {
		return false
	}
	for _, op := range f.byKind(chanRecv) {
		if op.spawn != sp {
			return true
		}
	}
	return false
}

// containsEscape reports whether the subtree holds a return or break
// statement (an exit path out of an unconditional loop).
func containsEscape(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a nested function's return does not exit the loop
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				found = true
			}
		}
		return !found
	})
	return found
}
