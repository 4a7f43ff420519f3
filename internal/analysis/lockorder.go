package analysis

// lockorder holds every mutex to one shape, so its rules need no
// dataflow:
//
//   - every Lock or RLock is a statement followed directly, in its
//     statement list (a block, a case body or a select arm), by a
//     deferred Unlock or RUnlock of the same lock, so a lock is held
//     from its acquisition to its function's exit;
//   - a function that holds a lock takes no other lock (nor the same
//     one again, in a loop), does no blocking channel operation (a
//     plain send or receive, a select without default, a range over a
//     channel), and makes no in-frame call to a same-unit function that
//     may lock or block.
//
// Frames follow the call graph's in-frame edges: code under a `go`
// statement, or in a function literal not invoked on the spot, runs in
// a frame of its own. A finding names a lock as written at its call.
// Audited exceptions carry //fssga:conc(reason).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lockorder is the lock-discipline analyzer.
var Lockorder = &Analyzer{
	Name:      "lockorder",
	Doc:       "every Lock is followed directly by a deferred Unlock, and a function holding a lock takes no other lock, does no blocking channel operation and calls nothing in the package that may (audited exceptions: //fssga:conc(reason))",
	AppliesTo: DeterminismCritical,
	Directive: ConcDirective,
	Run:       runLockorder,
}

// unlockOf maps each acquiring lock method to its release.
var unlockOf = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// The effects a function may have in its own frame.
const (
	mayLock uint8 = 1 << iota
	mayBlock
)

type lockCtx struct {
	*concCtx
	effects map[*types.Func]uint8
}

func runLockorder(pass *Pass) error {
	lc := &lockCtx{concCtx: pass.conc(), effects: make(map[*types.Func]uint8)}
	lc.summarize()
	for _, f := range lc.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					lc.checkHolder(pass, n.Body)
				}
			case *ast.FuncLit:
				if lc.ownFrame(n) {
					lc.checkHolder(pass, n.Body)
				}
			}
			if name, m := lc.lockCall(n); unlockOf[m] != "" && !lc.unlockDeferred(n, name+"."+unlockOf[m]) {
				pass.Reportf(n.Pos(), "lock %q must be followed directly by defer %s.%s()", name, name, unlockOf[m])
			}
			return true
		})
	}
	return nil
}

// lockCall returns the receiver, as written, and the method when n is a
// call to a sync lock method (Lock, Unlock, RLock, RUnlock), or "" for
// both.
func (lc *lockCtx) lockCall(n ast.Node) (name, method string) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := lc.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return types.ExprString(sel.X), fn.Name()
	}
	return "", ""
}

// unlockDeferred reports whether the call n is a statement whose
// successor in its statement list is `defer release()`.
func (lc *lockCtx) unlockDeferred(n ast.Node, release string) bool {
	stmt, ok := lc.parents[n].(*ast.ExprStmt)
	if !ok {
		return false
	}
	var list []ast.Stmt
	switch p := lc.parents[stmt].(type) {
	case *ast.BlockStmt:
		list = p.List
	case *ast.CaseClause:
		list = p.Body
	case *ast.CommClause:
		list = p.Body
	}
	for i := 1; i < len(list); i++ {
		if d, ok := list[i].(*ast.DeferStmt); ok && list[i-1] == ast.Stmt(stmt) {
			name, method := lc.lockCall(d.Call)
			return name+"."+method == release
		}
	}
	return false
}

// ownFrame reports whether a function literal runs in a frame of its
// own, as every literal does unless invoked on the spot outside a `go`
// statement.
func (lc *lockCtx) ownFrame(lit *ast.FuncLit) bool {
	call, ok := lc.callParent(lit)
	if !ok || unparen(call.Fun) != ast.Expr(lit) {
		return true
	}
	_, spawned := lc.parents[call].(*ast.GoStmt)
	return spawned
}

// blocking describes n when it is a channel operation that can park its
// goroutine, and returns "" otherwise.
func (lc *lockCtx) blocking(n ast.Node) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		if !lc.nonBlocking(n) {
			return "blocking send"
		}
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !lc.nonBlocking(n) {
			return "blocking receive"
		}
	case *ast.RangeStmt:
		if lc.chanTyped(n.X) {
			return "ranging over a channel"
		}
	}
	return ""
}

// summarize computes each non-test declaration's effects: its own
// in-frame locks and blocking operations, then those of its in-frame
// callees to a fixed point (effects only grow, so iteration ends).
func (lc *lockCtx) summarize() {
	for _, fn := range lc.funcs {
		if body := lc.decls[fn].Body; body != nil && !lc.test[fn] {
			lc.walkFrames(body, func(n ast.Node, inFrame bool) {
				if _, m := lc.lockCall(n); inFrame && unlockOf[m] != "" {
					lc.effects[fn] |= mayLock
				} else if inFrame && lc.blocking(n) != "" {
					lc.effects[fn] |= mayBlock
				}
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range lc.funcs {
			for _, e := range lc.calls[fn] {
				if eff := lc.effects[fn] | lc.effects[e.callee]; e.inFrame && eff != lc.effects[fn] {
					lc.effects[fn], changed = eff, true
				}
			}
		}
	}
}

// checkHolder applies the holding rules to one function body that takes
// a lock. The first lock it takes is held to its exit, so every later
// acquisition (or the first again, in a loop), blocking operation and
// call that may lock or block runs under it.
func (lc *lockCtx) checkHolder(pass *Pass, body *ast.BlockStmt) {
	held := ""
	lc.walkFrames(body, func(n ast.Node, inFrame bool) {
		name, m := lc.lockCall(n)
		if !inFrame || unlockOf[m] == "" {
			return
		}
		if held == "" {
			if held = name; !lc.inLoop(n, body) {
				return
			}
		}
		pass.Reportf(n.Pos(), "lock %q acquired while %q is held: a function holds at most one lock", name, held)
	})
	if held == "" {
		return
	}
	lc.walkFrames(body, func(n ast.Node, inFrame bool) {
		if !inFrame {
			return
		}
		if what := lc.blocking(n); what != "" {
			pass.Reportf(n.Pos(), "%s while holding %q: the lock is held for the full park", what, held)
		}
		fn := lc.callee(n)
		switch eff := lc.effects[fn]; {
		case eff&mayBlock != 0:
			pass.Reportf(n.Pos(), "call to %s may block on a channel while holding %q", fn.Name(), held)
		case eff&mayLock != 0:
			pass.Reportf(n.Pos(), "call to %s may acquire a lock while holding %q", fn.Name(), held)
		}
	})
}

// inLoop reports whether the acquisition n may run twice within one run
// of body: a loop encloses it with no literal in between (a literal's
// deferred unlock releases the lock on every iteration), or body holds
// a goto, which may jump back over it.
func (lc *lockCtx) inLoop(n ast.Node, body *ast.BlockStmt) bool {
	for p := lc.parents[n]; p != nil && p != ast.Node(body); p = lc.parents[p] {
		switch p.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	jumps := false
	ast.Inspect(body, func(m ast.Node) bool {
		b, ok := m.(*ast.BranchStmt)
		jumps = jumps || ok && b.Tok == token.GOTO
		return !jumps
	})
	return jumps
}
