package fssga

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/testutil"

	"repro/internal/graph"
)

// denseMax is maxAutomaton over states 0..n-1 written with exact-state
// observations. Its Step avoids closures so it can back the
// zero-allocation assertions.
type denseMax struct{ n int }

func (d denseMax) Step(self int, view *View[int], rnd *rand.Rand) int {
	// Max via capped counts: the largest q <= self+... scan states downward.
	for q := d.n - 1; q > self; q-- {
		if view.AnyState(q) {
			return q
		}
	}
	return self
}

// denseCoin is coinAutomaton with an exact-state count: probabilistic,
// consuming one draw per activation, states {0, 1}.
type denseCoin struct{}

func (denseCoin) Step(self int, view *View[int], rnd *rand.Rand) int {
	return (rnd.Intn(2) + view.CountState(1, 2)) % 2
}

// TestDenseMatchesMap holds denseMax networks on random graphs to the
// linear-scan reference round by round. It keeps the name it had when
// the reference was the same automaton on map views.
func TestDenseMatchesMap(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnectedGNP(32, 0.12, rng)
		k := 8
		net := New[int](g.Clone(), denseMax{k}, func(v int) int { return v % k }, seed)
		want := append([]int(nil), net.states...)
		for r := 0; r < 6; r++ {
			net.SyncRound()
			want = linearRound(g, denseMax{k}, want)
			for v := 0; v < 32; v++ {
				if net.State(v) != want[v] {
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

// TestDenseViewObservations builds engine views and cross-checks every
// observation method against a NewView of the same neighbourhood.
func TestDenseViewObservations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnectedGNP(24, 0.2, rng)
	k := 5
	net := New[int](g, denseMax{k}, func(v int) int { return rng.Intn(k) }, 1)
	net.sync() // what a step does first
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

// checkPalette fails unless the network's palette numbers its states:
// for every node, dead ones included, pal.ent[ids[v]].s is states[v];
// each id's count is the number of nodes that name it, and live the
// number of ids in use; the index maps each entry's state to its id;
// and every slot vector has the length sync last gave them.
func checkPalette[S comparable](t *testing.T, what string, net *Network[S]) {
	t.Helper()
	p := &net.pal
	if net.stale {
		t.Fatalf("%s: ids left stale", what)
	}
	counts := make([]int32, len(p.ent))
	for v, s := range net.states {
		id := net.ids[v]
		if id < 0 || int(id) >= len(p.ent) || p.ent[id].s != s {
			t.Fatalf("%s: node %d in state %v has id %d, which the palette of %d entries does not give it", what, v, s, id, len(p.ent))
		}
		counts[id]++
	}
	live := 0
	for id, e := range p.ent {
		if e.n != counts[id] {
			t.Fatalf("%s: id %d (state %v) counts %d nodes, %d name it", what, id, e.s, e.n, counts[id])
		}
		if e.n > 0 {
			live++
		}
		if got, ok := p.index[e.s]; !ok || got != int32(id) {
			t.Fatalf("%s: the index gives state %v id %d (present %v), want %d", what, e.s, got, ok, id)
		}
	}
	if len(p.index) != len(p.ent) {
		t.Fatalf("%s: the index holds %d states, the palette %d", what, len(p.index), len(p.ent))
	}
	if p.live != live {
		t.Fatalf("%s: the palette counts %d live ids, %d are in use", what, p.live, live)
	}
	for _, sc := range net.workers {
		if len(sc.slot) != net.slots {
			t.Fatalf("%s: a slot vector of %d slots, want %d", what, len(sc.slot), net.slots)
		}
	}
}

// budgetAuto is inner with a Step that panics while budget is positive.
type budgetAuto struct {
	inner  Automaton[int]
	budget *atomic.Int64
}

func (a budgetAuto) Step(self int, view *View[int], rnd *rand.Rand) int {
	if a.budget.Add(-1) >= 0 {
		panic("injected worker panic")
	}
	return a.inner.Step(self, view, rnd)
}

// TestDenseIDsTrackStates: every operation that writes states keeps the
// palette and the ids current (checkPalette), except New and
// RestoreStates, which leave them stale for the next round, activation
// or quiescence probe to renumber. A palette holding more than 2·live +
// paletteSlack entries is renumbered by the next sync, reusing its
// storage, or reallocating it at the live count once it has room for
// many times that. The test keeps the name it had when ids were dense
// state indices.
func TestDenseIDsTrackStates(t *testing.T) {
	testutil.NoLeak(t)
	const side = 16
	for _, tc := range []struct {
		name  string
		inner Automaton[int]
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
				auto := budgetAuto{tc.inner, &budget}
				init := func(v int) int { return v % side }
				var net *Network[int]
				if csr {
					net = NewFromCSR[int](graph.TorusCSR(side, side), auto, init, 3)
				} else {
					net = New[int](graph.Torus(side, side), auto, init, 3)
				}
				if !net.stale {
					t.Fatal("New left the ids marked current")
				}
				initial := append([]int(nil), net.states...)
				restore := func(states []int) {
					if err := net.RestoreStates(states, 0); err != nil {
						t.Fatal(err)
					}
					if !net.stale {
						t.Fatal("RestoreStates left the ids marked current")
					}
				}
				// bloat numbers distinct states over the nodes, then walks
				// node 6 through fresh states until the palette holds
				// more than 2·live + paletteSlack entries and has room
				// for many times its live ids or not, as roomy says. The
				// next sync, Quiescent's, must renumber it, reallocating
				// its storage at the live count exactly when it was roomy.
				bloat := func(distinct int, roomy bool) {
					states := make([]int, len(initial))
					for v := range states {
						states[v] = v % distinct
					}
					restore(states)
					net.Quiescent()
					p := &net.pal
					for k := 0; len(p.ent) <= 2*p.live+paletteSlack || p.roomy() != roomy; k++ {
						if k > 8*paletteSlack {
							t.Fatalf("%d SetStates left %d entries, room for %d, for %d live ids", k, len(p.ent), cap(p.ent), p.live)
						}
						net.SetState(6, 1<<20+k)
					}
					checkPalette(t, "before the renumbering", net)
					room := cap(p.ent)
					net.Quiescent()
					if len(p.ent) != p.live {
						t.Fatalf("Quiescent left %d entries for %d live ids", len(p.ent), p.live)
					}
					if reused := cap(p.ent) == room; reused == roomy {
						t.Fatalf("room for %d states and %d live ids: the renumbering reused the storage = %v", room, p.live, reused)
					}
					if roomy && cap(p.ent) != p.live {
						t.Fatalf("the reallocated palette has room for %d states, want its %d live ids", cap(p.ent), p.live)
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
					{"SetState(new state)", false, false, func() { net.SetState(7, 3*side) }},
					{"RestoreStates+SyncRound", false, false, func() { restore(initial); net.SyncRound() }},
					{"RestoreStates+SyncRoundParallel(2)", false, false, func() { restore(initial); net.SyncRoundParallel(2) }},
					{"RestoreStates+Activate", false, false, func() { restore(initial); net.Activate(9) }},
					{"RestoreStates+SetState+SyncRound", false, false, func() {
						restore(initial)
						net.SetState(8, 5*side) // written while stale, numbered by the round
						net.SyncRound()
					}},
					{"OnBeforeRound removal", false, true, func() {
						// The removed node is frozen in a state no live
						// node holds; it stays numbered and counted.
						states := append([]int(nil), initial...)
						states[17] = 7 * side
						restore(states)
						net.OnBeforeRound = func(int) { net.G.RemoveNode(17) }
						net.SyncRoundParallel(2)
						net.OnBeforeRound = nil
					}},
					{"supervised retry", false, false, func() {
						budget.Store(1)
						net.SyncRoundParallel(2)
					}},
					{"RestoreStates+Quiescent", false, false, func() { restore(initial); net.Quiescent() }},
					{"renumbering in place", false, false, func() { bloat(len(initial), false) }},
					{"renumbering reallocated", false, false, func() { bloat(side, true) }},
					{"SyncRound after renumbering", false, false, func() { net.SyncRound() }},
				}
				for _, op := range ops {
					if op.det && !tc.det || op.mut && csr {
						continue
					}
					budget.Store(-1)
					op.run()
					checkPalette(t, "after "+op.name, net)
				}
			})
		}
	}
}

// TestSyncRoundZeroAllocs: after warm-up, the synchronous-round hot path
// allocates nothing on the one palette view path (the scratch View and
// its present list are recycled). The subtest names are historical: all
// three run the same path. map-hub's hub sees 1,000 distinct states in
// the warm-up round; a view build resets only the slots of the last
// view's states, so later rounds do not pay for that view again.
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

// TestPaletteBoundedOnCensus: a census network, iterated OR over
// Flajolet–Martin sketches, meets many more distinct states on a
// power-law graph on its way to quiescence than it ends with: one. The
// palette must end with at most 2·live + paletteSlack entries, which
// only renumbering on the live count ensures.
func TestPaletteBoundedOnCensus(t *testing.T) {
	g := graph.PLaw(4096, 2, 4, 5)
	rng := rand.New(rand.NewSource(11))
	init := make([]uint64, g.Cap())
	for v := range init {
		for j := 0; j < 4; j++ { // four 16-bit sketches; bit i is set with probability 2^-(i+1)
			i := 0
			for i < 15 && rng.Intn(2) == 0 {
				i++
			}
			init[v] |= 1 << (16*j + i)
		}
	}
	net := New[uint64](g, SemiLattice[uint64]{Join: OrJoin}, func(v int) uint64 { return init[v] }, 1)
	met := make(map[uint64]bool)
	see := func(int) {
		for _, s := range net.States() {
			met[s] = true
		}
	}
	see(0)
	net.OnRound = see
	if _, ok := net.RunSyncUntilQuiescent(100); !ok {
		t.Fatal("the census did not quiesce within 100 rounds")
	}
	checkPalette(t, "at quiescence", net)
	p := &net.pal
	if len(met) <= 2*p.live+paletteSlack {
		t.Fatalf("the census met %d distinct states and ends with %d: too few to test the bound", len(met), p.live)
	}
	if len(p.ent) > 2*p.live+paletteSlack {
		t.Fatalf("after meeting %d distinct states the palette holds %d entries for %d live ids, want at most %d",
			len(met), len(p.ent), p.live, 2*p.live+paletteSlack)
	}
	t.Logf("met %d distinct states over %d rounds; the palette ends with %d entries, room for %d, %d live",
		len(met), net.Rounds, len(p.ent), cap(p.ent), p.live)
}
