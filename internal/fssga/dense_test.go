package fssga

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"

	"repro/internal/graph"
)

// denseMax is maxAutomaton with dense indexing over states 0..n-1. Its
// Step avoids closures so it can back the zero-allocation assertions.
type denseMax struct{ n int }

func (d denseMax) NumStates() int       { return d.n }
func (d denseMax) StateIndex(s int) int { return s }
func (d denseMax) Step(self int, view *View[int], rnd *rand.Rand) int {
	// Max via capped counts: the largest q <= self+... scan states downward.
	for q := d.n - 1; q > self; q-- {
		if view.AnyState(q) {
			return q
		}
	}
	return self
}

// denseCoin is coinAutomaton with dense indexing: probabilistic, consuming
// one draw per activation, states {0, 1}.
type denseCoin struct{}

func (denseCoin) NumStates() int       { return 2 }
func (denseCoin) StateIndex(s int) int { return s }
func (denseCoin) Step(self int, view *View[int], rnd *rand.Rand) int {
	return (rnd.Intn(2) + view.CountState(1, 2)) % 2
}

// hugeDense declares an oversized state space, forcing the map fallback.
type hugeDense struct{}

func (hugeDense) NumStates() int       { return math.MaxInt }
func (hugeDense) StateIndex(s int) int { return s }
func (hugeDense) Step(self int, view *View[int], rnd *rand.Rand) int {
	return maxAutomaton{}.Step(self, view, rnd)
}

func TestDenseDetection(t *testing.T) {
	g := graph.Path(4)
	if net := New[int](g.Clone(), denseMax{8}, func(v int) int { return v % 8 }, 1); !net.DenseViews() {
		t.Fatal("denseMax should run on the dense path")
	}
	// Wrapping in StepFunc hides the DenseAutomaton methods.
	wrapped := StepFunc[int](denseMax{8}.Step)
	if net := New[int](g.Clone(), wrapped, func(v int) int { return v % 8 }, 1); net.DenseViews() {
		t.Fatal("StepFunc wrapper must use the map fallback")
	}
	if net := New[int](g.Clone(), hugeDense{}, func(v int) int { return v }, 1); net.DenseViews() {
		t.Fatal("oversized NumStates must use the map fallback")
	}
}

// TestDenseMatchesMap runs the same automaton dense-wired and map-wrapped
// over random graphs and checks the state trajectories are identical.
func TestDenseMatchesMap(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnectedGNP(32, 0.12, rng)
		k := 8
		init := func(v int) int { return v % k }
		dense := New[int](g.Clone(), denseMax{k}, init, seed)
		mapped := New[int](g.Clone(), StepFunc[int](denseMax{k}.Step), init, seed)
		if !dense.DenseViews() || mapped.DenseViews() {
			return false
		}
		for r := 0; r < 6; r++ {
			dense.SyncRound()
			mapped.SyncRound()
			for v := 0; v < 32; v++ {
				if dense.State(v) != mapped.State(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickN(t, 114, 20)); err != nil {
		t.Fatal(err)
	}
}

// TestDenseViewObservations builds engine views on the dense path and
// cross-checks every observation method against a freshly built map view
// of the same neighbourhood.
func TestDenseViewObservations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnectedGNP(24, 0.2, rng)
	k := 5
	net := New[int](g, denseMax{k}, func(v int) int { return rng.Intn(k) }, 1)
	if !net.DenseViews() {
		t.Fatal("expected dense path")
	}
	sc := net.serialScratch()
	for v := 0; v < g.Cap(); v++ {
		got := net.buildView(sc, g.CSR().Neighbors(v), net.states)
		var nbrStates []int
		for _, u := range g.SortedNeighbors(v, nil) {
			nbrStates = append(nbrStates, net.states[u])
		}
		want := NewView(nbrStates)
		if got.Empty() != want.Empty() || got.DegreeCapped(3) != want.DegreeCapped(3) {
			t.Fatalf("node %d: degree observations differ", v)
		}
		for q := -1; q <= k; q++ {
			if got.AnyState(q) != want.AnyState(q) {
				t.Fatalf("node %d: AnyState(%d) differs", v, q)
			}
			for cap := 1; cap <= 3; cap++ {
				if got.CountState(q, cap) != want.CountState(q, cap) {
					t.Fatalf("node %d: CountState(%d, %d) differs", v, q, cap)
				}
			}
		}
		odd := func(s int) bool { return s%2 == 1 }
		if got.Count(3, odd) != want.Count(3, odd) ||
			got.CountMod(3, odd) != want.CountMod(3, odd) ||
			got.Any(odd) != want.Any(odd) ||
			got.None(odd) != want.None(odd) ||
			got.All(odd) != want.All(odd) ||
			got.Exactly(2, odd) != want.Exactly(2, odd) {
			t.Fatalf("node %d: predicate observations differ", v)
		}
		gotSum, wantSum := 0, 0
		got.ForEach(func(s, c int) { gotSum += (s + 1) * c })
		want.ForEach(func(s, c int) { wantSum += (s + 1) * c })
		if gotSum != wantSum {
			t.Fatalf("node %d: ForEach aggregate differs", v)
		}
		gr := Remap(got, func(s int) int { return s % 2 })
		wr := Remap(want, func(s int) int { return s % 2 })
		if gr.CountState(1, 10) != wr.CountState(1, 10) || gr.CountState(0, 10) != wr.CountState(0, 10) {
			t.Fatalf("node %d: Remap differs", v)
		}
	}
}

// badIndex returns an out-of-range index for state 1.
type badIndex struct{}

func (badIndex) NumStates() int                                     { return 2 }
func (badIndex) StateIndex(s int) int                               { return s * 100 }
func (badIndex) Step(self int, view *View[int], rnd *rand.Rand) int { return self }

func TestDenseOutOfRangeIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range StateIndex")
		}
	}()
	net := New[int](graph.Path(3), badIndex{}, func(v int) int { return 1 }, 1)
	net.SyncRound()
}

// TestSyncRoundZeroAllocs: after warm-up, the synchronous-round hot path
// allocates nothing, on dense and map views alike (the scratch View and
// its present list are recycled). map-hub resets a map that once held a
// 1,000-state view by deleting each key of the last view.
func TestSyncRoundZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnectedGNP(128, 0.05, rng)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		auto Automaton[int]
		init func(v int) int
	}{
		{"dense", g, denseMax{8}, func(v int) int { return v % 8 }},
		{"map-fallback", g, StepFunc[int](denseMax{8}.Step), func(v int) int { return v % 8 }},
		{"map-hub", hubCycle(16384, 1000), mapMax, func(v int) int { return v }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := New[int](tc.g.Clone(), tc.auto, tc.init, 1)
			net.SyncRound() // warm up scratch buffers
			if allocs := testing.AllocsPerRun(20, func() { net.SyncRound() }); allocs != 0 {
				t.Fatalf("SyncRound allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestActivateZeroAllocs covers the asynchronous hot path.
func TestActivateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	g := graph.Cycle(16)
	net := New[int](g, denseMax{8}, func(v int) int { return v % 8 }, 1)
	net.Activate(0) // warm up
	if allocs := testing.AllocsPerRun(50, func() { net.Activate(3) }); allocs != 0 {
		t.Fatalf("Activate allocates %.1f objects/op, want 0", allocs)
	}
}

// TestQuiescentZeroAllocs: the quiescence probe steps on the serial
// scratch's stream, re-pointed in place, so after the first call it
// allocates nothing.
func TestQuiescentZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	g := graph.Cycle(64)
	net := New[int](g, denseMax{8}, func(v int) int { return v % 8 }, 1)
	net.RunSyncUntilQuiescent(100)
	net.Quiescent() // first call lazily builds the serial scratch
	if allocs := testing.AllocsPerRun(20, func() { net.Quiescent() }); allocs != 0 {
		t.Fatalf("Quiescent allocates %.1f objects/op, want 0 (the serial scratch should be reused)", allocs)
	}
}
