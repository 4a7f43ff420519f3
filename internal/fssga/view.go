// Package fssga implements the finite-state symmetric graph automaton
// model of Pritchard & Vempala (SPAA 2006), Definitions 3.10 and 3.11: a
// copy of one automaton inhabits every node of an undirected graph; when a
// node activates it reads its own state and the *multiset* of its
// neighbours' states and moves to a new state. The package provides the
// network simulator with synchronous, asynchronous and goroutine-parallel
// execution, and the symmetric NeighborView through which node programs
// observe their neighbourhood.
//
// Symmetry is enforced mechanically: a node program receives only a
// View — a multiset of neighbour states with count-capped and
// count-modulo observations — so it cannot depend on neighbour order or
// identity, exactly the mod-thresh characterization of Theorem 3.7.
package fssga

import "math"

// View is the symmetric, finite observation of a node's neighbourhood: the
// multiset of neighbour states. All observation methods are functions of
// the multiplicities (μ_q) only, so any program written against View
// computes an SM function of its neighbours (Definition 3.1).
//
// Methods taking a cap return min(count, cap) — a thresh-style
// observation; CountMod is the mod-style observation. Programs must use
// constant caps and moduli to stay finite-state.
//
// Every View is a present list: the distinct neighbour states and their
// multiplicities as parallel slices, so an observation costs O(distinct
// states). Only the exact-state lookup differs by mode: a slot vector
// indexed by DenseAutomaton.StateIndex, or a map from state to slot.
//
// Views handed to Automaton.Step by the engine are backed by reusable
// scratch: they are valid only for the duration of the Step call and must
// not be retained.
type View[S comparable] struct {
	present []S     // the distinct neighbour states
	mult    []int32 // mult[k] is the multiplicity of present[k]
	total   int

	// Exact-state lookup: slot k+1 names present[k], 0 means absent.
	// Dense mode (idx non-nil) reads slot[idx(q)]; map mode reads slots[q].
	slot  []int32
	idx   func(S) int
	slots map[S]int32
}

// NewView builds a View from a slice of neighbour states. The slice order
// is irrelevant (only multiplicities are retained).
func NewView[S comparable](states []S) *View[S] {
	sc := newMapScratch[S](len(states))
	for _, s := range states {
		sc.add(s, 1)
	}
	sc.view.total = len(states)
	return &sc.view
}

// NewViewFromCounts builds a View from a multiplicity map, which it only
// reads. Multiplicities must lie in [0, math.MaxInt32]; a state with
// multiplicity 0 is not a neighbour state and is left out.
func NewViewFromCounts[S comparable](counts map[S]int) *View[S] {
	sc := newMapScratch[S](len(counts))
	for s, c := range counts {
		if c < 0 || c > math.MaxInt32 {
			panic("fssga: multiplicity out of int32 range")
		}
		if c > 0 {
			sc.push(s, 0, int32(c))
			sc.view.total += c
		}
	}
	return &sc.view
}

// Empty reports whether the node has no live neighbours. The FSSGA model
// assumes a connected graph with more than one node, but faults can
// isolate a node mid-run; the engine freezes isolated nodes and algorithms
// may consult Empty defensively.
//
//fssga:hotpath
func (v *View[S]) Empty() bool { return v.total == 0 }

// DegreeCapped returns min(degree, cap) — the thresh observation of the
// total neighbour count. cap must be positive.
//
//fssga:hotpath
func (v *View[S]) DegreeCapped(cap int) int {
	if cap < 1 {
		panic("fssga: DegreeCapped needs cap >= 1")
	}
	if v.total > cap {
		return cap
	}
	return v.total
}

// count returns the raw multiplicity μ_q of the exact state q.
//
//fssga:hotpath
func (v *View[S]) count(q S) int {
	var k int32
	if v.idx != nil {
		//fssga:alloc(StateIndex is a table lookup by the DenseAutomaton contract; dispatch through the stored func value)
		i := v.idx(q)
		if i < 0 || i >= len(v.slot) {
			// A state outside the automaton's declared index range cannot
			// occur as a neighbour state, so its multiplicity is zero.
			return 0
		}
		k = v.slot[i]
	} else {
		k = v.slots[q]
	}
	if k == 0 {
		return 0
	}
	return int(v.mult[k-1])
}

// CountState returns min(μ_q, cap) for the exact state q.
//
//fssga:hotpath
func (v *View[S]) CountState(q S, cap int) int {
	if cap < 1 {
		panic("fssga: CountState needs cap >= 1")
	}
	c := v.count(q)
	if c > cap {
		return cap
	}
	return c
}

// Count returns min(Σ_{q: pred(q)} μ_q, cap): the capped count of
// neighbours whose state satisfies pred. pred partitions the finite state
// set, so this is a thresh-expressible observation.
//
//fssga:hotpath
func (v *View[S]) Count(cap int, pred func(S) bool) int {
	if cap < 1 {
		panic("fssga: Count needs cap >= 1")
	}
	c := 0
	for k, s := range v.present {
		//fssga:alloc(pred is the caller's predicate; viewpure holds step programs to allocation-free observation)
		if pred(s) {
			c += int(v.mult[k])
			if c >= cap {
				return cap
			}
		}
	}
	return c
}

// CountMod returns (Σ_{q: pred(q)} μ_q) mod m — the mod observation.
//
//fssga:hotpath
func (v *View[S]) CountMod(m int, pred func(S) bool) int {
	if m < 1 {
		panic("fssga: CountMod needs modulus >= 1")
	}
	c := 0
	for k, s := range v.present {
		//fssga:alloc(pred is the caller's predicate; viewpure holds step programs to allocation-free observation)
		if pred(s) {
			c = (c + int(v.mult[k])) % m
		}
	}
	return c
}

// Any reports whether at least one neighbour satisfies pred.
//
//fssga:hotpath
func (v *View[S]) Any(pred func(S) bool) bool { return v.Count(1, pred) == 1 }

// AnyState reports whether at least one neighbour is exactly in state q.
//
//fssga:hotpath
func (v *View[S]) AnyState(q S) bool { return v.count(q) > 0 }

// None reports whether no neighbour satisfies pred.
//
//fssga:hotpath
func (v *View[S]) None(pred func(S) bool) bool { return !v.Any(pred) }

// All reports whether every neighbour satisfies pred (vacuously true for
// an isolated node).
//
//fssga:hotpath
func (v *View[S]) All(pred func(S) bool) bool {
	//fssga:alloc(the negation closure escapes into None; it captures only pred and is gone when All returns)
	return v.None(func(s S) bool { return !pred(s) })
}

// Exactly reports whether precisely k neighbours satisfy pred (k is a
// program constant, so this stays thresh-expressible via Equation (4)).
//
//fssga:hotpath
func (v *View[S]) Exactly(k int, pred func(S) bool) bool {
	return v.Count(k+1, pred) == k
}

// ForEach calls f once per distinct neighbour state with its multiplicity,
// in unspecified order. Intended for remapping and for formal automata
// that expand the multiset; algorithm programs should prefer the
// capped/mod observations.
//
//fssga:hotpath
func (v *View[S]) ForEach(f func(state S, count int)) {
	for k, s := range v.present {
		//fssga:alloc(f is the caller's fold; viewpure holds step programs to allocation-free observation)
		f(s, int(v.mult[k]))
	}
}

// Remap builds the View seen through a state transformation: each
// neighbour in state s is observed as being in state f(s). Used by the
// synchronizer transform, where a wrapped automaton must observe either
// the current or the previous component of each neighbour's composite
// state. The result is always a map-mode View with its own buffers.
func Remap[S, T comparable](v *View[S], f func(S) T) *View[T] {
	sc := newMapScratch[T](len(v.present))
	for k, s := range v.present {
		sc.add(f(s), v.mult[k])
	}
	sc.view.total = v.total
	return &sc.view
}
