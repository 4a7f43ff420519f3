package analysis

// dataflow.go is a forward worklist fixed-point engine over a CFG.
// Fact types are supplied by the analyzer through FlowFuncs; the
// engine guarantees termination for monotone transfer functions over
// finite-height lattices (its users — the symcontract taint, the
// finstate boundedness and the lockorder held-set domains — are
// powerset/level maps over the function's objects) and applies an optional per-edge refinement so
// branch conditions can sharpen facts (`x > cap` false ⇒ x ≤ cap).

import "go/ast"

// FlowFuncs defines one dataflow problem over fact type F.
type FlowFuncs[F any] struct {
	// Clone deep-copies a fact so transfer can mutate freely.
	Clone func(F) F
	// Join merges src into dst and returns the result (may reuse dst).
	// It must be monotone: Join(a, b) ⊒ a, b.
	Join func(dst, src F) F
	// Equal reports fact equality; the fixed point stops on it.
	Equal func(a, b F) bool
	// Transfer applies one block node's effect (may mutate and return f).
	Transfer func(n ast.Node, f F) F
	// Refine, if non-nil, sharpens the fact flowing along a
	// conditional (EdgeTrue/EdgeFalse) edge using e.Cond.
	Refine func(e *Edge, f F) F
}

// A FlowResult holds the per-block facts at the fixed point.
type FlowResult[F any] struct {
	fn FlowFuncs[F]
	// In is the fact on entry to each block; Out on normal completion.
	In, Out map[*Block]F
}

// Forward runs the problem to its fixed point. boundary is the fact
// entering the CFG (parameter assumptions); it is cloned, never
// mutated.
func Forward[F any](c *CFG, boundary F, fn FlowFuncs[F]) *FlowResult[F] {
	r := &FlowResult[F]{
		fn:  fn,
		In:  make(map[*Block]F, len(c.Blocks)),
		Out: make(map[*Block]F, len(c.Blocks)),
	}
	queued := make([]bool, len(c.Blocks))
	// Blocks are numbered in reverse post-order, so seeding the queue
	// in index order visits definitions before uses on acyclic paths.
	queue := make([]*Block, 0, len(c.Blocks))
	push := func(b *Block) {
		if !queued[b.Index] {
			queued[b.Index] = true
			queue = append(queue, b)
		}
	}
	push(c.Entry)
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b.Index] = false

		in := fn.Clone(boundary)
		if b != c.Entry {
			first := true
			for _, e := range b.Preds {
				out, ok := r.Out[e.From]
				if !ok {
					continue // predecessor not yet visited
				}
				f := fn.Clone(out)
				if fn.Refine != nil && (e.Kind == EdgeTrue || e.Kind == EdgeFalse) && e.Cond != nil {
					f = fn.Refine(e, f)
				}
				if first {
					in = f
					first = false
				} else {
					in = fn.Join(in, f)
				}
			}
			if first {
				continue // no reachable predecessor yet; revisited later
			}
		}
		r.In[b] = fn.Clone(in)
		out := in
		for _, n := range b.Nodes {
			out = fn.Transfer(n, out)
		}
		if old, ok := r.Out[b]; ok && fn.Equal(old, out) {
			continue
		}
		r.Out[b] = out
		for _, e := range b.Succs {
			push(e.To)
		}
	}
	return r
}

// Replay re-runs the transfer function through block b from its In
// fact, calling visit with the fact in force just before each node.
// Analyzers use it to inspect mid-block program points (e.g. the fact
// at a return statement) without the engine storing per-node facts.
func (r *FlowResult[F]) Replay(b *Block, visit func(n ast.Node, before F)) {
	in, ok := r.In[b]
	if !ok {
		return // block never reached at the fixed point
	}
	f := r.fn.Clone(in)
	for _, n := range b.Nodes {
		visit(n, f)
		f = r.fn.Transfer(n, f)
	}
}
