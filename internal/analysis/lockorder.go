package analysis

// lockorder proves the unit's lock discipline over the CFG:
//
//   - unlock-on-all-paths: a mutex locked in a function must be
//     released on every path to the exit — by an unlock on each path or
//     by a deferred unlock;
//   - no double acquisition: taking a lock (or a write lock over a held
//     read lock) that may already be held self-deadlocks;
//   - no lock held across a blocking channel operation: a plain send or
//     receive, a select without default, or a call to a same-unit
//     function whose transitive summary contains one, performed while a
//     lock is held, stalls every other goroutine contending for it;
//   - consistent acquisition order: holding A while acquiring B (in the
//     function body or transitively through a same-unit call) orders
//     A before B; two locks acquired in both orders anywhere in the
//     unit are a deadlock pair, and every edge on such a cycle is
//     flagged.
//
// The transitive summaries follow the call graph's in-frame edges only:
// a call inside a `go` statement, or inside a function literal that is
// not invoked on the spot, does not run while the caller holds its
// locks.
//
// Lock identity is the struct field or variable owning the mutex (the
// conc layer's target resolution), so MemFS.mu and FaultFS.mu stay
// distinct while two receivers of the same method share one identity.
// A lock is named by how it is written at its first acquisition in
// source order, so messages do not depend on map iteration order.
// Audited exceptions carry //fssga:conc(reason).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Lockorder is the lock-discipline analyzer.
var Lockorder = &Analyzer{
	Name:      "lockorder",
	Doc:       "mutexes unlock on all paths, are never re-acquired or held across blocking channel ops, and keep one acquisition order unit-wide (audited exceptions: //fssga:conc(reason))",
	AppliesTo: DeterminismCritical,
	Directive: ConcDirective,
	Run:       runLockorder,
}

// lockKind distinguishes write and read acquisition.
type lockKind uint8

const (
	lockWrite lockKind = iota
	lockRead
)

// A mutexOp is one classified Lock/Unlock/RLock/RUnlock call.
type mutexOp struct {
	obj     types.Object
	name    string // the receiver path as written at this call
	acquire bool
	kind    lockKind
	pos     token.Pos
}

// A lockSummary is a function's transitive lock/channel effect: the
// identities it may acquire and whether it may block on a channel.
type lockSummary struct {
	acquires map[types.Object]bool
	blocking bool
}

// lockorderCtx extends the conc layer with the unit-wide order graph.
type lockorderCtx struct {
	*concCtx
	summaries map[*types.Func]*lockSummary
	names     map[types.Object]string
	// order records held->acquired edges with their first witness.
	order map[[2]types.Object]token.Pos
}

func runLockorder(pass *Pass) error {
	lc := &lockorderCtx{
		concCtx:   pass.conc(),
		summaries: make(map[*types.Func]*lockSummary),
		names:     make(map[types.Object]string),
		order:     make(map[[2]types.Object]token.Pos),
	}
	for _, f := range lc.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if op, ok := lc.mutexOpOf(call); ok && op.acquire && lc.names[op.obj] == "" {
					lc.names[op.obj] = op.name
				}
			}
			return true
		})
	}
	lc.summarize()

	// Analyze every function-like body independently: declarations plus
	// function literals (a literal runs on its own goroutine or frame;
	// locks do not flow across its boundary statically).
	for _, f := range lc.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					lc.checkBody(fn.Body, pass.Reportf)
				}
			case *ast.FuncLit:
				lc.checkBody(fn.Body, pass.Reportf)
			}
			return true
		})
	}
	lc.reportCycles(pass)
	return nil
}

// mutexOpOf classifies a call as a mutex operation, resolving the
// receiver to its lock identity.
func (lc *lockorderCtx) mutexOpOf(call *ast.CallExpr) (mutexOp, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return mutexOp{}, false
	}
	var op mutexOp
	switch sel.Sel.Name {
	case "Lock":
		op.acquire, op.kind = true, lockWrite
	case "Unlock":
		op.acquire, op.kind = false, lockWrite
	case "RLock":
		op.acquire, op.kind = true, lockRead
	case "RUnlock":
		op.acquire, op.kind = false, lockRead
	default:
		return mutexOp{}, false
	}
	fn, ok := lc.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return mutexOp{}, false
	}
	op.obj = lc.target(sel.X)
	if op.obj == nil {
		return mutexOp{}, false
	}
	op.pos = call.Pos()
	op.name = renderLockName(sel.X)
	return op, true
}

// renderLockName prints the receiver path of a mutex op ("p.mu").
func renderLockName(e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return renderLockName(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return renderLockName(x.X) + "[...]"
	case *ast.StarExpr:
		return renderLockName(x.X)
	}
	return "<lock>"
}

// summarize computes each non-test declaration's transitive lock
// summary to a fixed point over the in-frame call edges (effects only
// grow, so iteration terminates).
func (lc *lockorderCtx) summarize() {
	for _, obj := range lc.funcs {
		if !lc.test[obj] {
			lc.summaries[obj] = &lockSummary{acquires: make(map[types.Object]bool)}
		}
	}
	for obj, s := range lc.summaries {
		body := lc.decls[obj].Body
		if body == nil {
			continue
		}
		// Spawned code blocks its own goroutine, not the caller, and a
		// literal's effects land in the caller's frame only when it is
		// invoked on the spot.
		lc.walkFrames(body, func(n ast.Node, inFrame bool) {
			if !inFrame {
				return
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if op, ok := lc.mutexOpOf(n); ok && op.acquire {
					s.acquires[op.obj] = true
				}
			case *ast.SendStmt:
				if !lc.nonBlocking(n) {
					s.blocking = true
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !lc.nonBlocking(n) {
					s.blocking = true
				}
			case *ast.RangeStmt:
				if lc.chanTyped(n.X) {
					s.blocking = true
				}
			}
		})
	}
	for changed := true; changed; {
		changed = false
		for obj, s := range lc.summaries {
			for _, e := range lc.calls[obj] {
				cs := lc.summaries[e.callee]
				if !e.inFrame || cs == nil {
					continue
				}
				if cs.blocking && !s.blocking {
					s.blocking = true
					changed = true
				}
				for a := range cs.acquires {
					if !s.acquires[a] {
						s.acquires[a] = true
						changed = true
					}
				}
			}
		}
	}
}

// heldState is the may-held lattice value at one program point.
type heldState map[types.Object]lockKind

func (h heldState) clone() heldState {
	out := make(heldState, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// join unions o into h (write dominates read) and returns h.
func (h heldState) join(o heldState) heldState {
	for k, v := range o {
		if cur, ok := h[k]; !ok || (cur == lockRead && v == lockWrite) {
			h[k] = v
		}
	}
	return h
}

// equal reports whether two held-sets hold the same locks in the same modes.
func (h heldState) equal(o heldState) bool {
	if len(h) != len(o) {
		return false
	}
	for k, v := range h {
		if cur, ok := o[k]; !ok || cur != v {
			return false
		}
	}
	return true
}

// checkBody runs the may-held dataflow over one function body and
// reports discipline violations.
func (lc *lockorderCtx) checkBody(body *ast.BlockStmt, report func(pos token.Pos, format string, args ...any)) {
	cfg := BuildCFG(body)
	if cfg == nil {
		return
	}

	// Deferred unlocks release at function exit; collect them up front
	// (they do not shorten the held region — that is the point of defer).
	deferred := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if op, isOp := lc.mutexOpOf(d.Call); isOp && !op.acquire {
			deferred[op.obj] = true
		}
		return true
	})

	// Fixed point of the may-held states at block entry, on the shared
	// engine: a block's first visit always propagates, so locks taken in a
	// later block (inside a leading if, say) reach every block after it.
	flow := Forward(cfg, heldState{}, FlowFuncs[heldState]{
		Clone: heldState.clone,
		Join:  heldState.join,
		Equal: heldState.equal,
		Transfer: func(n ast.Node, held heldState) heldState {
			lc.transfer(n, held, nil)
			return held
		},
	})

	// Reporting pass over the stabilized states.
	firstLock := make(map[types.Object]token.Pos)
	for _, b := range cfg.Blocks {
		in, reached := flow.In[b]
		if !reached {
			continue
		}
		held := in.clone()
		for _, n := range b.Nodes {
			lc.transfer(n, held, func(op mutexOp, held heldState) {
				lc.checkNode(op, held, firstLock, report)
			})
			lc.checkBlocking(n, held, report)
		}
	}

	// Unlock-on-all-paths: may-held at the exit without a deferred
	// release means some path returns still holding the lock.
	if cfg.Exit != nil {
		var leaked []types.Object
		for obj := range flow.In[cfg.Exit] {
			if !deferred[obj] {
				leaked = append(leaked, obj)
			}
		}
		sort.Slice(leaked, func(i, j int) bool { return lc.names[leaked[i]] < lc.names[leaked[j]] })
		for _, obj := range leaked {
			pos := firstLock[obj]
			if pos == token.NoPos {
				continue
			}
			report(pos, "lock %q may be held at function exit on some path: unlock on every path or defer the unlock", lc.names[obj])
		}
	}
}

// transfer applies one CFG node's lock effects to held, calling onOp
// (when non-nil) for each acquisition before it lands.
func (lc *lockorderCtx) transfer(n ast.Node, held heldState, onOp func(op mutexOp, held heldState)) {
	// A RangeStmt node in a loop-head block stands for the has-next
	// check only; its body statements live in their own blocks.
	if r, ok := n.(*ast.RangeStmt); ok {
		lc.transfer(r.X, held, onOp)
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // analyzed as its own body
		case *ast.GoStmt:
			return false // spawned code affects its own goroutine
		case *ast.DeferStmt:
			return false // releases at exit, not here
		case *ast.CallExpr:
			if op, ok := lc.mutexOpOf(m); ok {
				if onOp != nil {
					onOp(op, held)
				}
				if op.acquire {
					for h := range held {
						if h != op.obj {
							lc.recordOrder(h, op.obj, op.pos)
						}
					}
					if cur, already := held[op.obj]; !already || (cur == lockRead && op.kind == lockWrite) {
						held[op.obj] = op.kind
					}
				} else {
					delete(held, op.obj)
				}
			}
		}
		return true
	})
}

// checkNode reports double acquisition and interprocedural effects for
// one mutex-affecting node.
func (lc *lockorderCtx) checkNode(op mutexOp, held heldState, firstLock map[types.Object]token.Pos, report func(pos token.Pos, format string, args ...any)) {
	if !op.acquire {
		return
	}
	if _, exists := firstLock[op.obj]; !exists {
		firstLock[op.obj] = op.pos
	}
	if cur, already := held[op.obj]; already && !(cur == lockRead && op.kind == lockRead) {
		report(op.pos, "lock %q may already be held here: self-deadlock", lc.names[op.obj])
	}
}

// checkBlocking reports blocking channel operations — directly or
// through a same-unit callee's summary — performed while a lock is held.
func (lc *lockorderCtx) checkBlocking(n ast.Node, held heldState, report func(pos token.Pos, format string, args ...any)) {
	if len(held) == 0 {
		return
	}
	holding := lc.heldNames(held)
	if r, ok := n.(*ast.RangeStmt); ok {
		// The head block's RangeStmt stands for the has-next check; its
		// body statements are their own CFG nodes. Judge only the range
		// expression here (ranging a channel blocks at the head).
		if lc.chanTyped(r.X) {
			report(r.Pos(), "ranging over a channel while holding %s blocks the lock owner", holding)
		}
		lc.checkBlocking(r.X, held, report)
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false // go itself never blocks the spawner
		case *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if !lc.nonBlocking(m) {
				report(m.Pos(), "blocking send while holding %s: the lock is held for the full park", holding)
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && !lc.nonBlocking(m) {
				report(m.Pos(), "blocking receive while holding %s: the lock is held for the full park", holding)
			}
		case *ast.RangeStmt:
			if lc.chanTyped(m.X) {
				report(m.Pos(), "ranging over a channel while holding %s blocks the lock owner", holding)
			}
		case *ast.CallExpr:
			fn := staticCallee(lc.Info, m)
			if fn == nil {
				return true
			}
			s := lc.summaries[fn]
			if s == nil {
				return true
			}
			if s.blocking {
				report(m.Pos(), "call to %s may block on a channel while holding %s", fn.Name(), holding)
			}
			for a := range s.acquires {
				for h := range held {
					if h != a {
						lc.recordOrder(h, a, m.Pos())
					}
				}
				if _, already := held[a]; already {
					report(m.Pos(), "call to %s may re-acquire %q already held here: self-deadlock", fn.Name(), lc.names[a])
				}
			}
		}
		return true
	})
}

// heldNames renders the held set for diagnostics, sorted for stability.
func (lc *lockorderCtx) heldNames(held heldState) string {
	var names []string
	for obj := range held {
		names = append(names, fmt.Sprintf("%q", lc.names[obj]))
	}
	sort.Strings(names)
	out := names[0]
	for _, n := range names[1:] {
		out += ", " + n
	}
	return out
}

// recordOrder notes that `held` was held while acquiring `acq`.
func (lc *lockorderCtx) recordOrder(held, acq types.Object, pos token.Pos) {
	key := [2]types.Object{held, acq}
	if _, seen := lc.order[key]; !seen {
		lc.order[key] = pos
	}
}

// reportCycles flags every order edge that participates in a cycle of
// the unit-wide acquisition graph: two locks taken in both orders
// anywhere in the unit are a deadlock pair.
func (lc *lockorderCtx) reportCycles(pass *Pass) {
	succ := make(map[types.Object]map[types.Object]bool)
	for key := range lc.order {
		if succ[key[0]] == nil {
			succ[key[0]] = make(map[types.Object]bool)
		}
		succ[key[0]][key[1]] = true
	}
	// reaches reports a path from a to b in the order graph.
	var reaches func(a, b types.Object, seen map[types.Object]bool) bool
	reaches = func(a, b types.Object, seen map[types.Object]bool) bool {
		if a == b {
			return true
		}
		if seen[a] {
			return false
		}
		seen[a] = true
		for y := range succ[a] {
			if reaches(y, b, seen) {
				return true
			}
		}
		return false
	}
	for key, pos := range lc.order {
		if reaches(key[1], key[0], map[types.Object]bool{}) {
			pass.Reportf(pos, "lock %q acquired while %q is held, but the opposite order also occurs in this package: deadlock pair", lc.names[key[1]], lc.names[key[0]])
		}
	}
}
