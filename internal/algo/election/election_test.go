package election

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fssga"
	"repro/internal/graph"
)

func TestElectsUniqueLeaderSmallGraphs(t *testing.T) {
	cases := map[string]func() *graph.Graph{
		"P2":     func() *graph.Graph { return graph.Path(2) },
		"P5":     func() *graph.Graph { return graph.Path(5) },
		"C6":     func() *graph.Graph { return graph.Cycle(6) },
		"K4":     func() *graph.Graph { return graph.Complete(4) },
		"star":   func() *graph.Graph { return graph.Star(6) },
		"grid":   func() *graph.Graph { return graph.Grid(3, 3) },
		"tree":   func() *graph.Graph { return graph.BinaryTree(7) },
		"theta":  func() *graph.Graph { return graph.Theta(1, 2, 3) },
		"wheel":  func() *graph.Graph { return graph.Wheel(6) },
		"torus":  func() *graph.Graph { return graph.Torus(3, 3) },
		"K33":    func() *graph.Graph { return graph.CompleteBipartite(3, 3) },
		"lolli":  func() *graph.Graph { return graph.Lollipop(4, 3) },
		"barbel": func() *graph.Graph { return graph.Barbell(3, 2) },
	}
	for name, build := range cases {
		g := build()
		n := g.NumNodes()
		tr := New(g, 77)
		rounds, elected := tr.Run(40000*n, 3*n+10)
		if !elected {
			t.Errorf("%s: no stable unique leader after %d rounds (leaders=%v remaining=%d phases=%d)",
				name, rounds, tr.Leaders(), tr.Remaining(), tr.Phases)
			continue
		}
		if ls := tr.Leaders(); len(ls) != 1 {
			t.Errorf("%s: leaders = %v", name, ls)
		}
		if tr.Remaining() != 1 {
			t.Errorf("%s: remaining = %d", name, tr.Remaining())
		}
	}
}

func TestElectsUniqueLeaderRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		g := graph.RandomConnectedGNP(n, 0.2, rng)
		tr := New(g, seed)
		_, elected := tr.Run(60000*n, 3*n+10)
		if !elected {
			t.Errorf("seed %d (n=%d): no stable leader (leaders=%v remaining=%d phases=%d rounds=%d)",
				seed, n, tr.Leaders(), tr.Remaining(), tr.Phases, tr.Rounds)
		}
	}
}

func TestAlwaysAtLeastOneRemaining(t *testing.T) {
	// Invariant from Section 4.7: eliminations never remove every node.
	g := graph.Cycle(9)
	tr := New(g, 5)
	for r := 0; r < 8000; r++ {
		tr.Round()
		if tr.Remaining() < 1 {
			t.Fatalf("round %d: zero remaining nodes", r)
		}
	}
}

func TestRemainingIsMonotoneNonIncreasing(t *testing.T) {
	g := graph.Grid(3, 4)
	tr := New(g, 9)
	prev := tr.Remaining()
	for r := 0; r < 6000; r++ {
		tr.Round()
		cur := tr.Remaining()
		if cur > prev {
			t.Fatalf("round %d: remaining grew %d -> %d", r, prev, cur)
		}
		prev = cur
	}
}

func TestPhasesGrowLogarithmically(t *testing.T) {
	// Θ(log n) phases: each phase should eliminate a constant fraction.
	// Compare phase counts at two sizes: quadrupling n should add only a
	// couple of phases, not quadruple them.
	phaseCount := func(n int, seed int64) int {
		g := graph.Cycle(n)
		tr := New(g, seed)
		if _, ok := tr.Run(200000*n, 3*n+10); !ok {
			t.Fatalf("n=%d: election did not finish", n)
		}
		return tr.Phases
	}
	small := 0
	large := 0
	for seed := int64(0); seed < 3; seed++ {
		small += phaseCount(8, seed)
		large += phaseCount(32, seed)
	}
	if large > 4*small+12 {
		t.Fatalf("phases grew too fast: total %d at n=8 vs %d at n=32", small, large)
	}
}

func TestEliminationRatePerPhase(t *testing.T) {
	// Claim 4.1: while >1 node remains, each phase eliminates each
	// non-unique remainer with probability >= 1/4; across early phases
	// the remaining count should shrink substantially.
	g := graph.Complete(16)
	tr := New(g, 3)
	tr.Run(500000, 60)
	if len(tr.RemainingPerPhase) < 2 {
		t.Fatal("no phases recorded")
	}
	// After 8 phases, expect far fewer than 16 remaining (E[frac] <= (3/4)^8 ≈ 0.1).
	idx := len(tr.RemainingPerPhase) - 1
	if idx > 8 {
		idx = 8
	}
	if tr.RemainingPerPhase[idx] > 12 {
		t.Fatalf("after %d phases, %d of 16 remain (history %v)", idx, tr.RemainingPerPhase[idx], tr.RemainingPerPhase)
	}
}

func TestLeaderIsARemainingNode(t *testing.T) {
	g := graph.Path(6)
	tr := New(g, 21)
	if _, ok := tr.Run(400000, 30); !ok {
		t.Fatal("no leader")
	}
	leader := tr.Leaders()[0]
	s := tr.Net.State(leader)
	if !s.Remain || s.Dist != 0 {
		t.Fatalf("leader state %+v: must be a remaining root", s)
	}
}

// TestTrackerOnCSR: a Tracker reads the network's topology, not its
// mutable graph, so it runs on a NewFromCSR network, whose graph is nil,
// and follows the same run as over the equal mutable graph.
func TestTrackerOnCSR(t *testing.T) {
	const seed, n = 5, 64
	overGraph := New(graph.Torus(8, 8), seed)
	overCSR := &Tracker{Net: fssga.NewFromCSR(graph.TorusCSR(8, 8), Auto(), func(int) State { return State{} }, seed)}
	for _, tr := range []*Tracker{overGraph, overCSR} {
		if _, ok := tr.Run(40000*n, 3*n+10); !ok {
			t.Fatalf("graph=%v: no stable leader after %d rounds", tr.Net.G != nil, tr.Rounds)
		}
	}
	if overCSR.Rounds != overGraph.Rounds || !slices.Equal(overCSR.Leaders(), overGraph.Leaders()) {
		t.Fatalf("over the CSR: %d rounds, leaders %v; over the graph: %d rounds, leaders %v",
			overCSR.Rounds, overCSR.Leaders(), overGraph.Rounds, overGraph.Leaders())
	}
}

func TestDifferentSeedsDifferentLeaders(t *testing.T) {
	// Global symmetry breaking is genuinely random: across seeds, on a
	// vertex-transitive graph, different nodes must win.
	winners := map[int]bool{}
	for seed := int64(0); seed < 6; seed++ {
		g := graph.Cycle(5)
		tr := New(g, seed)
		if _, ok := tr.Run(300000, 25); !ok {
			t.Fatalf("seed %d: no leader", seed)
		}
		winners[tr.Leaders()[0]] = true
	}
	if len(winners) < 2 {
		t.Fatalf("same winner across all seeds: %v", winners)
	}
}

// The phase counters of adjacent nodes never diverge by more than one
// step — the synchronizer-style invariant the mod-3 representation needs.
func TestAdjacentPhaseSkewAtMostOne(t *testing.T) {
	g := graph.Grid(4, 4)
	tr := New(g, 13)
	// Track true (unbounded) phases per node by watching transitions.
	truePhase := make([]int, 16)
	prev := make([]uint8, 16)
	for v := range prev {
		prev[v] = tr.Net.State(v).Phase
	}
	for r := 0; r < 6000; r++ {
		tr.Round()
		for v := 0; v < 16; v++ {
			cur := tr.Net.State(v).Phase
			if cur != prev[v] {
				truePhase[v]++
				prev[v] = cur
			}
		}
		for _, e := range g.Edges() {
			d := truePhase[e.U] - truePhase[e.V]
			if d < -1 || d > 1 {
				t.Fatalf("round %d: phase skew %d across edge %v", r, d, e)
			}
		}
	}
}

// Leaders are only ever declared by remaining roots, and Leaders() agrees
// with a direct scan of the state vector.
func TestLeadersConsistentWithStates(t *testing.T) {
	g := graph.Cycle(10)
	tr := New(g, 4)
	for r := 0; r < 4000; r++ {
		tr.Round()
		for _, l := range tr.Leaders() {
			s := tr.Net.State(l)
			if !s.Leader {
				t.Fatal("Leaders() reported a non-leader")
			}
			if !s.Remain {
				t.Fatalf("round %d: eliminated node %d is a leader", r, l)
			}
		}
	}
}
