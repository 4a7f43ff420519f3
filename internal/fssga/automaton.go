package fssga

import "math/rand"

// Automaton is a (possibly probabilistic) FSSGA node program. Step
// receives the node's own state, the symmetric View of its neighbours'
// states, and the random stream of this step — fresh bits for every
// activation, a pure function of (seed, node, epoch) (rng.go) — and
// returns the node's new state.
//
// Determinism contract: a Step implementation may draw randomness only
// from rnd (Definition 3.11's finite random choice); given equal (self,
// view, rnd-stream) it must return equal states. The engine relies on this
// to make synchronous parallel execution bit-identical to serial
// execution. rnd is valid only for the duration of the Step call and must
// not be retained.
//
// A node reads its own state asymmetrically (it selects which FSM function
// f[q] runs) and its neighbours symmetrically (through the View), exactly
// as in Definition 3.10.
type Automaton[S comparable] interface {
	Step(self S, view *View[S], rnd *rand.Rand) S
}

// StepFunc adapts an ordinary function to the Automaton interface.
type StepFunc[S comparable] func(self S, view *View[S], rnd *rand.Rand) S

// Step implements Automaton.
func (f StepFunc[S]) Step(self S, view *View[S], rnd *rand.Rand) S {
	return f(self, view, rnd)
}
