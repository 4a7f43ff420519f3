// Fixture for the InferContracts footprint table: one automaton per
// footprint shape.
package capinfer

import (
	"math/rand"

	"fssga"
)

type S int8

// modThresh observes through every capped primitive: footprint
// thresh={1,2,3} (Empty→1, Exactly(1)→2, Count(3)→3), mods={2}.
type modThresh struct{}

func (modThresh) Step(self S, view *fssga.View[S], rnd *rand.Rand) S {
	if view.Empty() {
		return self
	}
	n := view.Count(3, func(s S) bool { return s == self })
	m := view.CountMod(2, func(s S) bool { return s > 0 })
	if view.Exactly(1, func(s S) bool { return s == 0 }) {
		return 0
	}
	return S((n + m) % 4)
}

// folder consumes the whole multiset: ForEach footprint.
type folder struct{}

func (folder) Step(self S, view *fssga.View[S], rnd *rand.Rand) S {
	out := self
	view.ForEach(func(t S, _ int) {
		if t > out {
			out = t
		}
	})
	return out
}

// escapee hands the view to a helper: the footprint degrades to
// ForEach because the callee may observe anything.
type escapee struct{}

func viewHelper(v *fssga.View[S]) bool { return v.Empty() }

func (escapee) Step(self S, view *fssga.View[S], rnd *rand.Rand) S {
	if viewHelper(view) {
		return 0
	}
	return self
}

// unbounded's cap is a runtime field: no finite footprint to declare.
type unbounded struct{ k int }

func (u unbounded) Step(self S, view *fssga.View[S], rnd *rand.Rand) S {
	if view.Count(u.k, func(s S) bool { return s > 0 }) > 0 { // want `view.Count cap is not a compile-time constant; .* independent of n`
		return 0
	}
	return self
}
