package fssga

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/graph"
)

// hotpathReport loads the packages carrying //fssga:hotpath markers and
// computes their static hotalloc verdicts, keyed by function display
// name. It is the static half of the static↔dynamic cross-check below.
func hotpathReport(t *testing.T) map[string]string {
	t.Helper()
	loader := analysis.NewLoader("")
	units, err := loader.LoadPatterns("repro/internal/fssga", "repro/internal/checkpoint")
	if err != nil {
		t.Fatalf("loading hotpath packages: %v", err)
	}
	report, err := analysis.HotpathReport(units)
	if err != nil {
		t.Fatalf("HotpathReport: %v", err)
	}
	if len(report) == 0 {
		t.Fatal("HotpathReport found no //fssga:hotpath functions; markers lost?")
	}
	verdicts := make(map[string]string, len(report))
	for _, f := range report {
		if f.Verdict == analysis.VerdictFlagged {
			t.Errorf("%s (%s:%d) is statically flagged: run fssga-vet -analyzers hotalloc for the diagnostics", f.Name, f.File, f.Line)
		}
		verdicts[f.Name] = f.Verdict
	}
	return verdicts
}

// TestHotpathStaticDominatesDynamic is the acceptance harness of the
// hotalloc gate: the static verdict of every //fssga:hotpath function
// must dominate its measured behaviour. Concretely:
//
//   - no marked function may be "flagged" (the gate is red);
//   - every engine entry point we measure below must be marked (a hot
//     path the analyzer never sees proves nothing);
//   - a transitively "proven" function must measure 0 allocs/op, and the
//     audited engine drivers must also measure 0 in steady state — their
//     //fssga:alloc sites are amortized (lazy construction, capacity
//     growth) or dormant (nil hooks), so a nonzero steady-state measure
//     means an audit is papering over a real regression.
func TestHotpathStaticDominatesDynamic(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	verdicts := hotpathReport(t)
	for _, name := range []string{
		"Network.viewFor", "Network.buildView", "buildViewOver",
		"Network.SyncRound", "Network.SyncRoundFrontier", "Network.round",
		"Network.stepChunk", "Network.step", "Network.commit", "Network.Activate",
		"Network.Quiescent", "View.Empty", "View.DegreeCapped",
		"View.CountState", "View.Count", "View.CountMod", "diffRuns",
	} {
		if verdicts[name] == "" {
			t.Errorf("%s carries no //fssga:hotpath marker (or was renamed); the static gate does not cover it", name)
		}
	}

	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnectedGNP(96, 0.06, rng)
	net := New[int](g, denseMax{8}, func(v int) int { return v % 8 }, 1)
	net.SyncRound() // warm up scratch, agg bookkeeping, lazy probe state
	net.Quiescent()

	steps := []struct {
		name string // display name in the report
		run  func()
	}{
		{"Network.SyncRound", func() { net.SyncRound() }},
		{"Network.SyncRoundFrontier", func() { net.SyncRoundFrontier() }},
		{"Network.Activate", func() { net.Activate(5) }},
		{"Network.Quiescent", func() { net.Quiescent() }},
	}
	for _, s := range steps {
		v, ok := verdicts[s.name]
		if !ok {
			continue // already reported above
		}
		allocs := testing.AllocsPerRun(20, s.run)
		if allocs != 0 {
			t.Errorf("%s: measured %.1f allocs/op in steady state with static verdict %q; static no longer dominates dynamic", s.name, allocs, v)
		}
	}

	// The pure View observations are transitively proven or audited only
	// for table lookups / caller predicates; all must measure 0 on the
	// dense path with an allocation-free predicate.
	net2 := New[int](graph.Cycle(16), denseMax{8}, func(v int) int { return v % 8 }, 1)
	net2.SyncRound()
	sc := net2.serialScratch()
	c := net2.topo()
	view := net2.buildView(sc, c.Neighbors(3), net2.states)
	isOdd := func(s int) bool { return s%2 == 1 }
	viewOps := []struct {
		name string
		run  func()
	}{
		{"View.Empty", func() { view.Empty() }},
		{"View.DegreeCapped", func() { view.DegreeCapped(4) }},
		{"View.CountState", func() { view.CountState(1, 4) }},
		{"View.Count", func() { view.Count(4, isOdd) }},
		{"View.CountMod", func() { view.CountMod(3, isOdd) }},
		{"View.AnyState", func() { view.AnyState(1) }},
		{"View.Exactly", func() { view.Exactly(2, isOdd) }},
	}
	for _, op := range viewOps {
		v, ok := verdicts[op.name]
		if !ok {
			t.Errorf("%s carries no //fssga:hotpath marker; the static gate does not cover it", op.name)
			continue
		}
		if allocs := testing.AllocsPerRun(50, op.run); allocs != 0 {
			t.Errorf("%s: measured %.1f allocs/op with static verdict %q", op.name, allocs, v)
		}
	}

	// diffRuns' dynamic half lives in internal/checkpoint (the function
	// is unexported there); its static verdict is asserted above and in
	// TestHotpathProvenSubset.
}

// TestHotpathProvenSubset pins that the transitive-verdict machinery
// still distinguishes proven from audited: the pure threshold
// observations are proven outright, while everything dispatching through
// an automaton interface or growing amortized scratch is audited.
func TestHotpathProvenSubset(t *testing.T) {
	verdicts := hotpathReport(t)
	proven := []string{"View.Empty", "View.DegreeCapped", "aggState.combine", "Network.aggActive"}
	for _, name := range proven {
		if v := verdicts[name]; v != analysis.VerdictProven {
			t.Errorf("%s: verdict %q, want %q", name, v, analysis.VerdictProven)
		}
	}
	audited := []string{
		"Network.SyncRound", "Network.SyncRoundFrontier", "Network.Activate",
		"Network.Quiescent", "Network.buildView", "buildViewOver", "diffRuns",
		"View.Count", "View.CountMod", "View.ForEach",
	}
	for _, name := range audited {
		if v := verdicts[name]; v != analysis.VerdictAudited {
			t.Errorf("%s: verdict %q, want %q", name, v, analysis.VerdictAudited)
		}
	}
	for name, v := range verdicts {
		if v == analysis.VerdictFlagged {
			t.Errorf("%s: flagged (already reported by the harness, repeated here for the proven-subset view)", name)
		}
	}
	if testing.Verbose() {
		var b strings.Builder
		for name, v := range verdicts {
			b.WriteString(name + "=" + v + " ")
		}
		t.Logf("hotpath verdicts: %s", b.String())
	}
}
