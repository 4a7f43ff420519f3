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
//
// State layout: S is passed to Step, returned from it and copied several
// times per step (into the view, the change buffer and the state
// vector). On amd64 the compiler copies a value of 7, 11 or 13–15
// bytes, or of more than 16 bytes and not a multiple of 8, with two
// moves that overlap, and a read of such a copy stalls until both
// stores retire. Give S a size that copies in whole words, by widening
// fields into its padding rather than adding an unexported pad, which
// testing/quick cannot set and %v prints. A 13-byte election.State cost
// a third of every election round. The rule stops at registers: an
// array field keeps a small struct out of them, so a state that already
// copies in whole words keeps its holes (shortestpath.State ran slower
// with its 7-byte hole filled by a [7]uint8 pad). The repository's
// TestStateSizesCopyInWholeWords holds its automata to this rule.
type Automaton[S comparable] interface {
	Step(self S, view *View[S], rnd *rand.Rand) S
}

// StepFunc adapts an ordinary function to the Automaton interface.
type StepFunc[S comparable] func(self S, view *View[S], rnd *rand.Rand) S

// Step implements Automaton.
func (f StepFunc[S]) Step(self S, view *View[S], rnd *rand.Rand) S {
	return f(self, view, rnd)
}
