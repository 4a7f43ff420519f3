// The goroutine-lifecycle check of the shard pool lives in an external
// test package: it drives internal/chaos (which imports fssga), so it
// cannot sit inside package fssga itself.
package fssga_test

import (
	"math/rand"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fssga"
	"repro/internal/graph"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// TestConcWorkloadLeavesNoGoroutines drives every path that starts or
// stops a shard-pool helper — parallel rounds on a pool, a pool grown
// and replaced, a network dropped with its pool still running, and a
// full chaos run — and the NoLeak stack-diff cleanup asserts that zero
// goroutines survive: Def. 3.11's fair scheduler needs the helpers,
// which newShardPool's one `go` statement starts, to be stoppable.
// scripts/check.sh also runs it under -race at -cpu 1 and 2.
func TestConcWorkloadLeavesNoGoroutines(t *testing.T) {
	testutil.NoLeak(t)

	// The shard-pool helpers spawn on the first parallel round; a round
	// asking for more workers replaces the pool, stopping the first
	// generation; dropping the network lets its runtime cleanup stop the
	// second; the chaos run drives pools underneath every registered
	// fssga target.
	maxStep := fssga.StepFunc[int](func(self int, view *fssga.View[int], rnd *rand.Rand) int {
		if view.AnyState(self + 1) {
			return self + 1
		}
		return self
	})
	net := fssga.New[int](graph.Cycle(192), maxStep, func(v int) int { return v % 8 }, 3)
	for r := 0; r < 4; r++ {
		net.SyncRoundParallel(2)
	}
	net.SyncRoundParallel(4) // grow: a second generation of workers
	net = nil                // drop it: the cleanup stops the second generation

	if _, err := chaos.Run(chaos.Config{
		Target:    "census",
		Adversary: "burst",
		Graph:     trace.GraphSpec{Gen: "gnp", N: 24, Seed: 5},
		Seed:      5,
		Workers:   2,
	}); err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	// NoLeak's cleanup is the verdict: zero goroutines may survive.
}
