// Fixture for the globalwrite analyzer: package-level writes reachable
// from transition functions and goroutine bodies, via direct statements
// and through helper calls; serial code touching globals stays legal.
package globalwrite

import (
	"math/rand"

	"fssga"
)

type S int8

var (
	counter int
	total   int64
	results = map[S]int{}
	epoch   int64
)

func BadStep(self S, view *fssga.View[S], rnd *rand.Rand) S {
	counter++ // want `write to package-level variable "counter"`
	bump()
	return self
}

// bump is only flagged because BadStep (a worker root) reaches it.
func bump() {
	total += 2 // want `write to package-level variable "total"`
}

func BadMapWrite(self S, view *fssga.View[S], rnd *rand.Rand) S {
	results[self]++ // want `write to package-level variable "results"`
	return self
}

// Worker is a root via the `go Worker()` below.
func Worker() {
	counter = 0 // want `write to package-level variable "counter"`
}

func SpawnNamed() { go Worker() }

func SpawnLit() {
	go func() {
		total = 0 // want `write to package-level variable "total"`
	}()
}

// SpawnForward launches a worker declared later in the file, exercising
// the deferred-resolution path.
func SpawnForward() { go lateWorker() }

func lateWorker() {
	counter-- // want `write to package-level variable "counter"`
}

// GoodStep only touches locals and its own return value.
func GoodStep(self S, view *fssga.View[S], rnd *rand.Rand) S {
	local := 0
	local++
	if view.Empty() {
		return self
	}
	return self + S(local)
}

// NotReachable writes a global from ordinary serial code: legal, it is
// not a worker entry point and nothing spawns it.
func NotReachable() {
	counter = 5
}

// AuditedStep carries the allowlist directive on its single-writer
// counter.
func AuditedStep(self S, view *fssga.View[S], rnd *rand.Rand) S {
	epoch++ //fssga:nondet single-writer by construction in this experiment
	return self
}

// box is generic: a call on one of its instantiations resolves to a
// per-instance method object, which reachability must map back to the
// method's declaration.
type box[T any] struct{ v T }

func (b *box[T]) relay() { b.bump() }

// bump is only flagged because GenericStep reaches it through relay.
func (b *box[T]) bump() {
	total++ // want `write to package-level variable "total"`
}

func GenericStep(self S, view *fssga.View[S], rnd *rand.Rand) S {
	(&box[int]{}).relay()
	return self
}
