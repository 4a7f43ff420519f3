// Fold chains: a ForEach callback runs any number of times, so a value
// reaches the end of an assignment chain of any length.
package finstate

import (
	"math/rand"

	"fssga"
)

func FoldChain3(self S, view *fssga.View[S], rnd *rand.Rand) S {
	a, b, c := S(0), S(0), S(0)
	view.ForEach(func(t S, _ int) { c = b; b = a; a += t })
	return c // want `returned state value grows without bound`
}

func FoldChain4(self S, view *fssga.View[S], rnd *rand.Rand) S {
	a, b, c, d := S(0), S(0), S(0), S(0)
	view.ForEach(func(t S, _ int) { d = c; c = b; b = a; a += t })
	return d // want `returned state value grows without bound`
}

func FoldChain5(self S, view *fssga.View[S], rnd *rand.Rand) S {
	a, b, c, d, e := S(0), S(0), S(0), S(0), S(0)
	view.ForEach(func(t S, _ int) { e = d; d = c; c = b; b = a; a += t })
	return e // want `returned state value grows without bound`
}

// FoldChainClamped: the chain's end is reduced before it is returned.
func FoldChainClamped(self S, view *fssga.View[S], rnd *rand.Rand) S {
	a, b, c, d, e := S(0), S(0), S(0), S(0), S(0)
	view.ForEach(func(t S, _ int) { e = d; d = c; c = b; b = a; a += t })
	return e % 4
}
