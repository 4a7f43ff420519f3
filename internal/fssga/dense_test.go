package fssga

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
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
	if err := net.syncIDs(net.topo()); err != nil { // what a step does first
		t.Fatal(err)
	}
	sc := net.serialScratch()
	for v := 0; v < g.Cap(); v++ {
		got := net.buildView(sc, g.CSR().Neighbors(v))
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

// badIndex returns an out-of-range index for state 1. Its Step keeps the
// state, or moves to state 1 when jump is set.
type badIndex struct{ jump bool }

func (badIndex) NumStates() int       { return 2 }
func (badIndex) StateIndex(s int) int { return s * 100 }
func (b badIndex) Step(self int, view *View[int], rnd *rand.Rand) int {
	if b.jump {
		return 1
	}
	return self
}

// TestDenseOutOfRangeIndexPanics: a state out of StateIndex's range is
// caught where its index is computed, and nothing is committed. A bad
// initial or restored state fails the next round: SyncRound panics and
// TrySyncRoundParallel returns ErrStateIndex. A Step that produces one
// fails inside the supervised round, and SetState refuses one.
func TestDenseOutOfRangeIndexPanics(t *testing.T) {
	testutil.NoLeak(t)
	zeros := func(int) int { return 0 }
	// roundsRefused checks that the next round fails with ErrStateIndex
	// through both entry points and leaves states, ids and Rounds alone.
	roundsRefused := func(t *testing.T, net *Network[int]) {
		t.Helper()
		states, ids, rounds := append([]int(nil), net.states...), append([]int32(nil), net.ids...), net.Rounds
		func() {
			defer func() {
				r := recover()
				if err, _ := r.(error); !errors.Is(err, ErrStateIndex) {
					t.Errorf("SyncRound recovered %v, want a panic with ErrStateIndex", r)
				}
			}()
			net.SyncRound()
		}()
		if err := net.TrySyncRoundParallel(2); !errors.Is(err, ErrStateIndex) {
			t.Errorf("TrySyncRoundParallel returned %v, want ErrStateIndex", err)
		}
		if !reflect.DeepEqual(net.states, states) || !reflect.DeepEqual(net.ids, ids) || net.Rounds != rounds {
			t.Error("a refused round committed")
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"initial-state", func(t *testing.T) {
			net := New[int](graph.Cycle(supN), badIndex{}, func(v int) int { return v % 2 }, 1)
			roundsRefused(t, net)
		}},
		{"restored-state", func(t *testing.T) {
			net := New[int](graph.Cycle(supN), badIndex{}, zeros, 1)
			net.SyncRound()
			restored := make([]int, supN)
			restored[7] = 1
			if err := net.RestoreStates(restored, 5); err != nil {
				t.Fatal(err)
			}
			roundsRefused(t, net)
		}},
		{"step-on-pool", func(t *testing.T) {
			net := New[int](graph.Cycle(supN), badIndex{jump: true}, zeros, 1)
			if err := net.syncIDs(net.topo()); err != nil {
				t.Fatal(err)
			}
			ids := append([]int32(nil), net.ids...)
			err := net.TrySyncRoundParallel(2)
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Attempts != maxRoundAttempts {
				t.Fatalf("TrySyncRoundParallel returned %v, want a *PanicError after %d attempts", err, maxRoundAttempts)
			}
			if !reflect.DeepEqual(net.states, make([]int, supN)) || !reflect.DeepEqual(net.ids, ids) || net.Rounds != 0 {
				t.Fatal("the failed round committed")
			}
		}},
		{"set-state", func(t *testing.T) {
			net := New[int](graph.Cycle(supN), badIndex{}, zeros, 1)
			net.SyncRound()
			defer func() {
				if recover() == nil {
					t.Error("SetState accepted a state out of StateIndex's range")
				}
				if net.states[3] != 0 || net.ids[3] != 0 {
					t.Errorf("SetState wrote state %d, id %d", net.states[3], net.ids[3])
				}
			}()
			net.SetState(3, 1)
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// idsAuto is a dense automaton of int states for the ids tests: inner
// under the reversed enumeration, so that a state and its id differ, with
// a Step that panics while budget is positive.
type idsAuto struct {
	inner  DenseAutomaton[int]
	budget *atomic.Int64
}

func (a idsAuto) NumStates() int       { return a.inner.NumStates() }
func (a idsAuto) StateIndex(s int) int { return a.inner.NumStates() - 1 - a.inner.StateIndex(s) }
func (a idsAuto) Step(self int, view *View[int], rnd *rand.Rand) int {
	if a.budget.Add(-1) >= 0 {
		panic("injected worker panic")
	}
	return a.inner.Step(self, view, rnd)
}

// TestDenseIDsTrackStates: every operation that writes states keeps the
// dense ids current, ids[v] == StateIndex(states[v]) for every live
// node, except RestoreStates, which leaves them stale for the next round,
// activation or quiescence probe to recompute.
func TestDenseIDsTrackStates(t *testing.T) {
	testutil.NoLeak(t)
	const side = 16
	for _, tc := range []struct {
		name  string
		inner DenseAutomaton[int]
		det   bool
	}{
		{"deterministic", denseMax{side}, true},
		{"randomized", denseCoin{}, false},
	} {
		for _, csr := range []bool{false, true} {
			name := tc.name + "/new"
			if csr {
				name = tc.name + "/csr"
			}
			t.Run(name, func(t *testing.T) {
				var budget atomic.Int64
				auto := idsAuto{tc.inner, &budget}
				init := func(v int) int { return v % tc.inner.NumStates() }
				var net *Network[int]
				if csr {
					net = NewFromCSR[int](graph.TorusCSR(side, side), auto, init, 3)
				} else {
					net = New[int](graph.Torus(side, side), auto, init, 3)
				}
				initial := append([]int(nil), net.states...)
				restore := func() {
					if err := net.RestoreStates(initial, 0); err != nil {
						t.Fatal(err)
					}
					if !net.idsStale {
						t.Fatal("RestoreStates left the ids marked current")
					}
				}
				ops := []struct {
					name string
					det  bool // deterministic automata only
					mut  bool // mutable graph only
					run  func()
				}{
					{"SyncRound", false, false, func() { net.SyncRound() }},
					{"SyncRoundParallel(2)", false, false, func() { net.SyncRoundParallel(2) }},
					{"SyncRoundFrontier", true, false, func() { net.SyncRoundFrontier() }},
					{"SyncRoundParallelFrontier(2)", true, false, func() { net.SyncRoundParallelFrontier(2) }},
					{"Activate", false, false, func() { net.Activate(5) }},
					{"SetState", false, false, func() { net.SetState(6, 1) }},
					{"RestoreStates+SyncRound", false, false, func() { restore(); net.SyncRound() }},
					{"RestoreStates+SyncRoundParallel(2)", false, false, func() { restore(); net.SyncRoundParallel(2) }},
					{"RestoreStates+Activate", false, false, func() { restore(); net.Activate(9) }},
					{"OnBeforeRound removal", false, true, func() {
						// The removed node's state is out of range: the
						// round recomputes the ids over the nodes live
						// after its hook.
						bad := append([]int(nil), initial...)
						bad[17] = tc.inner.NumStates()
						if err := net.RestoreStates(bad, 0); err != nil {
							t.Fatal(err)
						}
						net.OnBeforeRound = func(int) { net.G.RemoveNode(17) }
						net.SyncRoundParallel(2)
						net.OnBeforeRound = nil
					}},
					{"supervised retry", false, false, func() {
						budget.Store(1)
						net.SyncRoundParallel(2)
					}},
					{"RestoreStates+Quiescent", false, false, func() { restore(); net.Quiescent() }},
				}
				for _, op := range ops {
					if op.det && !tc.det || op.mut && csr {
						continue
					}
					budget.Store(-1)
					op.run()
					if net.idsStale {
						t.Fatalf("after %s: ids left stale", op.name)
					}
					c := net.topo()
					for v := range c.Cap() {
						if c.Alive(v) && int(net.ids[v]) != auto.StateIndex(net.states[v]) {
							t.Fatalf("after %s: node %d has id %d, its state %d has StateIndex %d",
								op.name, v, net.ids[v], net.states[v], auto.StateIndex(net.states[v]))
						}
					}
				}
			})
		}
	}
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
