// Control-flow shapes for finstate's boundedness walk: one Step per
// construct, each pinning which returns carry a Growing value.
package finstate

import (
	"math/rand"

	"fssga"
)

// ElseClamp: the false exit of `x > 7` bounds x, the true exit does not.
func ElseClamp(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := self + 1
	if x > 7 {
		return x // want `returned state value grows without bound`
	} else {
		return x
	}
}

// Reversed: `7 < x` and `7 >= x` bound x on the exits where x ≤ 7.
func Reversed(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := self + 1
	if 7 >= x {
		return x
	}
	if 7 < x {
		x = 7
	}
	y := self * 2
	if 3 > y {
		return y
	}
	return x + y // want `returned state value grows without bound`
}

// And: both conjuncts hold on the true exit; either may have failed on
// the false exit.
func And(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := self + 1
	if view.Empty() && x < 5 {
		return x
	}
	if x < 5 && view.Empty() {
		return x
	}
	return x // want `returned state value grows without bound`
}

// Or: either disjunct may hold on the true exit; both failed on the
// false exit.
func Or(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := self + 1
	if x > 7 || view.Empty() {
		return x // want `returned state value grows without bound`
	}
	return x
}

// Not swaps the exits of its operand.
func Not(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := self + 1
	if !(x <= 7) {
		return x // want `returned state value grows without bound`
	}
	return x
}

// EqNeq: `==` bounds both sides on its true exit, `!=` on its false exit.
func EqNeq(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := self + 1
	if x == 3 {
		return x
	}
	if 3 != x {
		return x // want `returned state value grows without bound`
	}
	return x
}

// Counted: the loop condition bounds i inside the body, not after it.
func Counted(self S, view *fssga.View[S], rnd *rand.Rand) S {
	n := S(0)
	for i := S(0); i < 4; i++ {
		n = i
	}
	var i S
	for i = 0; i < 4; i++ {
	}
	if view.Empty() {
		return n
	}
	return i // want `returned state value grows without bound`
}

// While: a condition-only loop bounds x on its exit.
func While(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := self + 1
	for x > 7 {
		x -= 2
	}
	return x
}

// Forever: an infinite loop is left by break or return only.
func Forever(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := self
	for {
		x++
		if x > 9 {
			continue
		}
		if view.Empty() {
			break
		}
		return x
	}
	return x
}

// ContinueGrows: the value a continue carries reaches the next
// iteration's head.
func ContinueGrows(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := S(0)
	y := S(0)
	for x < 5 {
		if view.Empty() {
			y = self + 1
			continue
		}
		x = y
	}
	return x // want `returned state value grows without bound`
}

// Chain: a value needs three laps of the loop to reach the return.
func Chain(self S, view *fssga.View[S], rnd *rand.Rand) S {
	a, b, c := S(0), S(0), S(0)
	for i := 0; i < 3; i++ {
		if view.Empty() {
			return a // want `returned state value grows without bound`
		}
		a = b
		b = c
		c = self + 1
	}
	return 0
}

// NeverExits: code after a loop with no break is unreachable.
func NeverExits(self S, view *fssga.View[S], rnd *rand.Rand) S {
	for {
		if view.Empty() {
			return self % 4
		}
	}
	return self + 1
}

// Inits: an if's and a switch's init statements run before the
// condition; case expressions refine nothing.
func Inits(self S, view *fssga.View[S], rnd *rand.Rand) S {
	if y := self + 1; y < 5 {
		return y
	}
	switch y := self * 2; {
	case y > 3:
		return y // want `returned state value grows without bound`
	}
	return 0
}

// Labelled: break and continue name the outer loop.
func Labelled(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := S(0)
	y := S(0)
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if view.Empty() {
				x = self + 1
				break outer
			}
			if j > i {
				y = self * 2
				continue outer
			}
		}
	}
	if view.Empty() {
		return y // want `returned state value grows without bound`
	}
	return x // want `returned state value grows without bound`
}

// Range: the value takes the ranged expression's level, the key stays
// bounded, and the body's writes reach the next iteration.
func Range(self S, view *fssga.View[S], rnd *rand.Rand) S {
	arr := [3]S{self, self, self}
	last, key, out, prev := S(0), S(0), S(0), S(0)
	for k, v := range arr {
		last = v
		key = S(k) + 1
		out = prev
		prev = v + 1
	}
	if view.Empty() {
		return last
	}
	if self > 0 {
		return key
	}
	return out // want `returned state value grows without bound`
}

// RangeBreak: a break leaves a range loop with the body's fact.
func RangeBreak(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := S(0)
	for range 3 {
		if view.Empty() {
			x = self + 1
			break
		}
	}
	return x // want `returned state value grows without bound`
}

// Switch without a default: the tag's value skips every case.
func Switch(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := self + 1
	switch x {
	case 1:
		x = 1
	case 2:
		return x // want `returned state value grows without bound`
	}
	return x // want `returned state value grows without bound`
}

// SwitchDefault: with a default, every path runs a case.
func SwitchDefault(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := self + 1
	switch {
	case view.Empty():
		x = 0
	default:
		x = 3
	}
	return x
}

// Fallthrough carries a case's fact into the next case.
func Fallthrough(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := S(0)
	switch self {
	case 0:
		x = self + 1
		fallthrough
	case 1:
		return x // want `returned state value grows without bound`
	case 2:
		x = self * 2
		break
	default:
		x = 1
	}
	return x // want `returned state value grows without bound`
}

// TypeSwitch dispatches like a switch without fallthrough.
func TypeSwitch(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := S(0)
	var a any = self
	switch v := a.(type) {
	case S:
		x = v + 1
	case int:
		x = 2
	}
	return x
}

// Select joins its arms; a bare select{} never completes.
func Select(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := S(0)
	ch := make(chan S, 1)
	select {
	case v := <-ch:
		x = v
	case ch <- self:
		x = self + 1
	default:
		if view.Empty() {
			break
		}
		select {}
	}
	return x // want `returned state value grows without bound`
}

// GotoForward: a forward goto joins its label.
func GotoForward(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := S(0)
	if view.Empty() {
		x = self + 1
		goto done
	}
	x = 2
done:
	return x // want `returned state value grows without bound`
}

// GotoBackward: a backward goto is a loop; its label's fact grows.
func GotoBackward(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := S(0)
	y := S(0)
again:
	if view.Empty() {
		return y // want `returned state value grows without bound`
	}
	y = x
	x = self + 1
	goto again
}

// GotoInLoop: a backward goto inside a loop body.
func GotoInLoop(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := S(0)
	for i := 0; i < 2; i++ {
	retry:
		if view.Empty() && x == 0 {
			x = self + 1
			goto retry
		}
	}
	return x // want `returned state value grows without bound`
}

// GotoSkips: a goto over a return leaves that return unreachable.
func GotoSkips(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := self + 1
	goto clamp
	return x
clamp:
	if x > 3 {
		x = 3
	}
	return x
}

// SelectLoop: an unlabelled break leaves the select, a labelled one the
// loop, carrying what earlier laps wrote.
func SelectLoop(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := S(0)
	ch := make(chan S, 1)
loop:
	for {
		select {
		case <-ch:
			x = self + 1
			break
		default:
			break loop
		}
	}
	return x // want `returned state value grows without bound`
}

// ReturnAfterReturn: code after a return is unreachable and never
// reported.
func ReturnAfterReturn(self S, view *fssga.View[S], rnd *rand.Rand) S {
	return self % 4
	return self + 1
}

// PanicBranch: a branch ending in panic still joins its if.
func PanicBranch(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := self + 1
	if x > 7 {
		panic("overflow")
	}
	return x // want `returned state value grows without bound`
}

// DeferFold: a deferred ForEach fold applies at the defer statement.
func DeferFold(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := S(0)
	defer func() {
		view.ForEach(func(t S, _ int) { x += t })
	}()
	return x // want `returned state value grows without bound`
}

// FoldInCond: a ForEach fold inside a condition applies where the
// condition is evaluated.
func FoldInCond(self S, view *fssga.View[S], rnd *rand.Rand) S {
	sum := S(0)
	if func() bool { view.ForEach(func(t S, _ int) { sum += t }); return true }() {
		return 0
	}
	return sum // want `returned state value grows without bound`
}

// FoldInTag: the same in a switch tag.
func FoldInTag(self S, view *fssga.View[S], rnd *rand.Rand) S {
	sum := S(0)
	switch func() int { view.ForEach(func(t S, _ int) { sum += t }); return 0 }() {
	case 0:
		return sum // want `returned state value grows without bound`
	}
	return 0
}
