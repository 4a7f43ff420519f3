// Fixture for the symcontract analyzer: multiset-invariant folds,
// constant observation caps, and closure identity capture, built
// against the fake fssga and graph siblings.
package symcontract

import (
	"math/rand"
	"sort"

	"fssga"
	"graph"
)

type S int8

// GoodStep exercises every sanctioned shape: constant caps, a
// commutative fold, an idempotent set, an extremal guard, and a
// collect-then-sort accumulator. Nothing may be flagged.
func GoodStep(self S, view *fssga.View[S], rnd *rand.Rand) S {
	n := view.Count(3, func(s S) bool { return s == self })
	_ = view.Exactly(2, func(s S) bool { return s > 0 })
	_ = view.CountMod(2, func(s S) bool { return s != self })
	sum := 0
	seen := false
	best := self
	var qs []int
	view.ForEach(func(t S, c int) {
		sum += c
		seen = true
		if t > best {
			best = t
		}
		qs = append(qs, int(t))
	})
	sort.Ints(qs)
	if seen && len(qs) > 0 {
		return best
	}
	return S((int(self) + n + sum) % 4)
}

// BadOverwrite keeps the last element seen: the canonical
// order-dependent fold.
func BadOverwrite(self S, view *fssga.View[S], rnd *rand.Rand) S {
	var last S
	view.ForEach(func(t S, _ int) {
		last = t // want `ForEach fold overwrite of "last" depends on iteration order`
	})
	return last
}

// BadNonCommutative folds with division, which does not commute.
func BadNonCommutative(self S, view *fssga.View[S], rnd *rand.Rand) S {
	q := 8
	view.ForEach(func(t S, c int) {
		q /= c + 1 // want `ForEach fold updates "q" with non-commutative operator /=`
	})
	return S(q % 4)
}

// BadChained updates one accumulator from another: each operator
// commutes but the composition depends on interleaving.
func BadChained(self S, view *fssga.View[S], rnd *rand.Rand) S {
	a, b := 0, 0
	view.ForEach(func(t S, c int) {
		a += c
		b += a // want `ForEach fold update of "b" reads another accumulator`
	})
	return S(b % 4)
}

// BadAppend collects elements in observation order and never sorts.
func BadAppend(self S, view *fssga.View[S], rnd *rand.Rand) S {
	var acc []int
	view.ForEach(func(t S, _ int) {
		acc = append(acc, int(t)) // want `slice "acc" accumulates multiset elements in observation order`
	})
	return S(len(acc) % 4)
}

// BadSink streams fold elements into an ordered writer.
func BadSink(self S, view *fssga.View[S], rnd *rand.Rand) S {
	var w sink
	view.ForEach(func(t S, _ int) {
		w.WriteByte(byte(t)) // want `ForEach fold feeds ordered sink w.WriteByte`
	})
	return self
}

type sink struct{ n int }

func (s *sink) WriteByte(b byte) error {
	s.n++
	return nil
}

// indirect is a package-level callback: the fold body is invisible, so
// order-invariance cannot be proven.
var indirect func(S, int)

func BadIndirect(self S, view *fssga.View[S], rnd *rand.Rand) S {
	view.ForEach(indirect) // want `view.ForEach fold is not a function literal`
	return self
}

// BadCap passes a runtime value as an observation cap.
func BadCap(self S, view *fssga.View[S], rnd *rand.Rand) S {
	k := rnd.Intn(3) + 1
	if view.Count(k, func(s S) bool { return s == self }) > 0 { // want `view.Count cap is not a compile-time constant`
		return self
	}
	_ = view.CountMod(k, func(s S) bool { return s > 0 }) // want `view.CountMod modulus is not a compile-time constant`
	return 0
}

// MakeTainted builds a Step whose cap data-flows from the network
// size: the sharper n-taint diagnostic, plus the identity-capture one
// for reading the enclosing integer.
func MakeTainted(g *graph.Graph) func(S, *fssga.View[S], *rand.Rand) S {
	n := g.NumNodes()
	return func(self S, view *fssga.View[S], rnd *rand.Rand) S {
		if view.Count(n, func(s S) bool { return s > 0 }) > 0 { // want `view.Count cap derives from the network size` `transition function captures enclosing variable "n"`
			return self
		}
		return 0
	}
}

// sizer is generic: a call on one of its instantiations resolves to a
// per-instance method object, so the n-size taint must follow it to the
// method's declaration, for its result and for its parameters alike (a
// parameter whose type mentions T is a per-instance object too).
type sizer[T ~int] struct {
	g     *graph.Graph
	limit int
}

func (s sizer[T]) size() int { return s.g.NumNodes() }

func (s *sizer[T]) setLimit(k T) { s.limit = int(k) }

// MakeGenericTainted derives one cap from a generic method's result and
// another from a field a generic method sets from its parameter.
func MakeGenericTainted(g *graph.Graph) func(S, *fssga.View[S], *rand.Rand) S {
	var lim sizer[int]
	lim.setLimit(g.NumEdges())
	return func(self S, view *fssga.View[S], rnd *rand.Rand) S {
		if view.Count(sizer[int]{g: g}.size(), func(s S) bool { return s > 0 }) > 0 { // want `view.Count cap derives from the network size`
			return self
		}
		if view.Exactly(lim.limit, func(s S) bool { return s > 0 }) { // want `view.Exactly cap derives from the network size`
			return self
		}
		return 0
	}
}

// MakeIdentity smuggles a per-instantiation identity into the rule.
func MakeIdentity(id int) func(S, *fssga.View[S], *rand.Rand) S {
	return func(self S, view *fssga.View[S], rnd *rand.Rand) S {
		if view.AnyState(self) {
			return S(id % 4) // want `transition function captures enclosing variable "id"`
		}
		return self
	}
}

// helperFold is not Step-shaped, but views only exist inside
// transition calls, so its order-dependent fold is still a violation.
func helperFold(view *fssga.View[S]) S {
	var last S
	view.ForEach(func(t S, _ int) {
		last = t // want `ForEach fold overwrite of "last" depends on iteration order`
	})
	return last
}

// Suppressed pins the audit path: the directive absorbs the
// diagnostic, so no want comment may appear here.
func Suppressed(self S, view *fssga.View[S], rnd *rand.Rand) S {
	var w S
	view.ForEach(func(t S, _ int) {
		//fssga:nondet fixture: at most one matching neighbour by protocol invariant
		w = t
	})
	return w
}
