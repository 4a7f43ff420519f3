// The static↔dynamic cross-check of the concurrency gate lives in an
// external test package: it drives internal/chaos (which imports fssga),
// so it cannot sit inside package fssga itself.
package fssga_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/chaos"
	"repro/internal/fssga"
	"repro/internal/graph"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// TestConcStaticDominatesDynamic is the acceptance harness of the
// goroleak gate, mirroring TestHotpathStaticDominatesDynamic: the
// static goroutine-lifecycle verdict of every spawn site must dominate
// the dynamically observed goroutine population. Concretely:
//
//   - ConcReport over the concurrency-bearing packages must find the
//     spawn sites (an empty report would mean the effect layer went
//     blind, which proves nothing);
//   - no spawn may be "flagged" (the static gate is red);
//   - a workload that exercises every "proven" spawn site — parallel
//     rounds on a shard pool, a pool grown and replaced, a network
//     dropped with its pool still running, and a full chaos run — must
//     leave zero goroutines behind, which the NoLeak stack-diff cleanup
//     asserts.
//
// The test runs in race mode (scripts/check.sh chaos-race): a verdict
// that only dominates unsynchronized schedules would be vacuous.
func TestConcStaticDominatesDynamic(t *testing.T) {
	testutil.NoLeak(t)

	// Static half.
	loader := analysis.NewLoader("")
	// The algo packages ride along so chaos's imports resolve to the
	// source-checked fssga (one *types.Package per path — type identity).
	units, err := loader.LoadPatterns(
		"repro/internal/fssga", "repro/internal/algo/...",
		"repro/internal/chaos", "repro/internal/checkpoint")
	if err != nil {
		t.Fatalf("loading concurrency-bearing packages: %v", err)
	}
	report, err := analysis.ConcReport(units)
	if err != nil {
		t.Fatalf("ConcReport: %v", err)
	}
	if len(report) == 0 {
		t.Fatal("ConcReport found no spawn sites; the concurrency effect layer went blind")
	}
	sawPoolSpawn := false
	for _, sp := range report {
		if sp.Verdict == analysis.VerdictFlagged {
			t.Errorf("%s (%s:%d) is statically flagged: run fssga-vet -analyzers goroleak for the diagnostics", sp.Name, sp.File, sp.Line)
		}
		if filepath.Base(sp.File) == "shard.go" {
			sawPoolSpawn = true
		}
	}
	if !sawPoolSpawn {
		t.Error("no spawn site found in shard.go: the worker-pool spawn lost its coverage")
	}
	if t.Failed() {
		return // a red static gate already falsifies dominance
	}

	// Dynamic half: touch the proven spawn sites. The shard-pool workers
	// spawn on the first parallel round; a round asking for more workers
	// replaces the pool, stopping the first generation; dropping the
	// network lets its runtime cleanup stop the second; the chaos run
	// drives pools underneath every registered fssga target.
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
