package fssga

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/testutil"
)

// --- Composition-table algebra ---------------------------------------------

// TestSatTableAlgebra exhaustively checks, for every footprint up to
// (6, 5), that the composition table is a commutative monoid with
// identity 0 and that Project is a homomorphism from (N, +): the two
// properties that make balanced-tree aggregation exact for any tree
// shape and any leaf order.
func TestSatTableAlgebra(t *testing.T) {
	testutil.NoLeak(t)
	for thresh := 0; thresh <= 6; thresh++ {
		for period := 1; period <= 5; period++ {
			tab, err := SaturationTable(thresh, period)
			if err != nil {
				t.Fatal(err)
			}
			if tab.Thresh() != thresh || tab.Period() != period || tab.Values() != thresh+period {
				t.Fatalf("(%d,%d): table reports (%d,%d,%d)", thresh, period, tab.Thresh(), tab.Period(), tab.Values())
			}
			vals := tab.Values()
			for a := 0; a < vals; a++ {
				ua := uint8(a)
				if got := tab.Add(0, ua); got != ua {
					t.Fatalf("(%d,%d): 0+%d = %d, want identity", thresh, period, a, got)
				}
				if got, want := tab.Inc(ua), tab.Add(ua, tab.Project(1)); got != want {
					t.Fatalf("(%d,%d): Inc(%d) = %d, want %d", thresh, period, a, got, want)
				}
				for b := 0; b < vals; b++ {
					ub := uint8(b)
					if tab.Add(ua, ub) != tab.Add(ub, ua) {
						t.Fatalf("(%d,%d): %d+%d not commutative", thresh, period, a, b)
					}
					// Homomorphism on true counts: canonical values are
					// exactly Project images, so this covers all pairs.
					if got, want := tab.Add(tab.Project(a), tab.Project(b)), tab.Project(a+b); got != want {
						t.Fatalf("(%d,%d): Add(sat %d, sat %d) = %d, want sat(%d) = %d",
							thresh, period, a, b, got, a+b, want)
					}
					for c := 0; c < vals; c++ {
						uc := uint8(c)
						if tab.Add(tab.Add(ua, ub), uc) != tab.Add(ua, tab.Add(ub, uc)) {
							t.Fatalf("(%d,%d): (%d+%d)+%d not associative", thresh, period, a, b, c)
						}
					}
				}
			}
		}
	}
}

func TestSaturationTableRejectsBadFootprints(t *testing.T) {
	testutil.NoLeak(t)
	for _, bad := range [][2]int{{-1, 1}, {0, 0}, {3, -2}, {200, 100}} {
		if _, err := SaturationTable(bad[0], bad[1]); err == nil {
			t.Errorf("SaturationTable(%d, %d): want error", bad[0], bad[1])
		}
	}
	a, err1 := SaturationTable(1, 1)
	b, err2 := SaturationTable(1, 1)
	if err1 != nil || err2 != nil || a != b {
		t.Fatal("registry should return the identical cached table")
	}
}

// TestQuickTreeFoldMatchesDirectProjection is the property behind the
// hub trees: folding per-state saturated increments through an arbitrary
// binary tree shape equals projecting the true count directly.
func TestQuickTreeFoldMatchesDirectProjection(t *testing.T) {
	testutil.NoLeak(t)
	prop := func(thresh uint8, period uint8, count uint16, shapeSeed int64) bool {
		tb, err := SaturationTable(int(thresh%8), 1+int(period%6))
		if err != nil {
			return false
		}
		n := int(count % 500)
		// Leaves: n occurrences of one state, as unit increments.
		vals := make([]uint8, n)
		for i := range vals {
			vals[i] = tb.Project(1)
		}
		rng := rand.New(rand.NewSource(shapeSeed))
		for len(vals) > 1 {
			// Fold two random elements — over all draws this explores
			// arbitrary association orders and commutations.
			i := rng.Intn(len(vals))
			a := vals[i]
			vals[i] = vals[len(vals)-1]
			vals = vals[:len(vals)-1]
			j := rng.Intn(len(vals))
			vals[j] = tb.Add(a, vals[j])
		}
		folded := uint8(0)
		if n > 0 {
			folded = vals[0]
		}
		return folded == tb.Project(n)
	}
	if err := quick.Check(prop, testutil.Quick(t, 0xa99)); err != nil {
		t.Fatal(err)
	}
}

// --- Hub trees vs the linear path ------------------------------------------

// aggProbe is a deterministic automaton designed to exercise hub views:
// states 0/1 toggle unconditionally (sustained frontier activity), state
// 2 holds while any toggler is visible and decays to the absorbing 3
// otherwise. Footprint (1, 1): Step reads presence only.
type aggProbe struct{}

func (aggProbe) NumStates() int                  { return 4 }
func (aggProbe) StateIndex(s int) int            { return s }
func (aggProbe) SaturationFootprint() (int, int) { return 1, 1 }
func (aggProbe) Step(self int, view *View[int], rnd *rand.Rand) int {
	switch self {
	case 0:
		return 1
	case 1:
		return 0
	case 2:
		if view.AnyState(0) || view.AnyState(1) {
			return 2
		}
		return 3
	default:
		return 3
	}
}

// aggParity responds to counts, not just presence: hub states 2/3 track
// the parity of visible togglers. Footprint (0, 2): pure mod-2 counts.
type aggParity struct{}

func (aggParity) NumStates() int                  { return 4 }
func (aggParity) StateIndex(s int) int            { return s }
func (aggParity) SaturationFootprint() (int, int) { return 0, 2 }
func (aggParity) Step(self int, view *View[int], rnd *rand.Rand) int {
	if self < 2 {
		return 1 - self
	}
	return 2 + view.CountMod(2, func(s int) bool { return s == 1 || s == 3 })
}

// starInit seeds `togglers` toggling leaves (IDs 1..togglers) on a star
// whose remaining nodes idle at 2.
func starInit(togglers int) func(v int) int {
	return func(v int) int {
		if v >= 1 && v <= togglers {
			return 0
		}
		return 2
	}
}

// assertSameTrajectory runs both networks round-by-round with the given
// stepper and fails on the first state divergence.
func assertSameTrajectory(t *testing.T, rounds int, a, b *Network[int], step func(net *Network[int])) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		step(a)
		step(b)
		for v := range a.states {
			if a.states[v] != b.states[v] {
				t.Fatalf("round %d node %d: aggregated %d, linear %d", r+1, v, a.states[v], b.states[v])
			}
		}
	}
}

func TestHubViewMatchesLinearScan(t *testing.T) {
	testutil.NoLeak(t)
	for _, auto := range []interface {
		SaturatingAutomaton[int]
	}{aggProbe{}, aggParity{}} {
		for name, step := range map[string]func(net *Network[int]){
			"sync":     func(net *Network[int]) { net.SyncRound() },
			"frontier": func(net *Network[int]) { net.SyncRoundFrontier() },
			"parallel": func(net *Network[int]) { net.SyncRoundParallel(4) },
		} {
			t.Run(name, func(t *testing.T) {
				agg := New[int](graph.Star(300), auto, starInit(17), 1)
				lin := New[int](graph.Star(300), auto, starInit(17), 1)
				agg.SetAggDegreeCutoff(8)
				lin.SetAggDegreeCutoff(1 << 30) // aggregation off: pure linear scans
				assertSameTrajectory(t, 12, agg, lin, step)
				if s := agg.AggStats(); s.Hubs != 1 || s.HubViews == 0 {
					t.Fatalf("aggregated run did not engage the tree: %+v", s)
				}
				if s := lin.AggStats(); s.Hubs != 0 || s.HubViews != 0 {
					t.Fatalf("linear run engaged the tree: %+v", s)
				}
			})
		}
	}
}

// TestHubViewActivateAndQuiescent covers the two serial probes: single
// activations mark their own tree leaves, and Quiescent reads through
// hub trees without perturbing the trajectory.
func TestHubViewActivateAndQuiescent(t *testing.T) {
	testutil.NoLeak(t)
	agg := New[int](graph.Star(200), aggProbe{}, starInit(5), 1)
	lin := New[int](graph.Star(200), aggProbe{}, starInit(5), 1)
	agg.SetAggDegreeCutoff(8)
	lin.SetAggDegreeCutoff(1 << 30)
	order := []int{3, 0, 7, 0, 150, 3, 0}
	for _, v := range order {
		agg.Activate(v)
		lin.Activate(v)
	}
	if qa, ql := agg.Quiescent(), lin.Quiescent(); qa != ql {
		t.Fatalf("Quiescent: aggregated %v, linear %v", qa, ql)
	}
	for v := range agg.states {
		if agg.states[v] != lin.states[v] {
			t.Fatalf("node %d: aggregated %d, linear %d", v, agg.states[v], lin.states[v])
		}
	}
	if s := agg.AggStats(); s.HubViews == 0 {
		t.Fatalf("activations never read the tree: %+v", s)
	}
}

// TestAggIncrementalPath pins the point of the tree: with a localized
// frontier (togglers 1..16 live in the first leaf block of the hub's
// row), steady-state rounds rescan ~one leaf, not the whole degree-999
// row, and never trigger full rebuilds.
func TestAggIncrementalPath(t *testing.T) {
	testutil.NoLeak(t)
	net := New[int](graph.Star(1000), aggProbe{}, starInit(16), 1)
	net.SetAggDegreeCutoff(8)
	for r := 0; r < 3; r++ { // settle: non-adjacent 2s decay, tree built
		net.SyncRoundFrontier()
	}
	base := net.AggStats()
	const rounds = 10
	for r := 0; r < rounds; r++ {
		if !net.SyncRoundFrontier() {
			t.Fatal("togglers should never quiesce")
		}
	}
	s := net.AggStats()
	if s.TreeRebuilds != base.TreeRebuilds {
		t.Fatalf("steady-state frontier rounds triggered %d full rebuilds", s.TreeRebuilds-base.TreeRebuilds)
	}
	if got := s.LeafRescans - base.LeafRescans; got > 2*rounds {
		t.Fatalf("steady state rescanned %d leaves over %d rounds, want ~1/round", got, rounds)
	}
	if got := s.HubViews - base.HubViews; got != rounds {
		t.Fatalf("hub re-stepped %d times over %d rounds", got, rounds)
	}
}

// --- Invalidation edge cases ------------------------------------------------

// TestAggHubDeathMidRun kills the hub via the pre-round hook (the chaos
// adversaries' delivery path): the CSR swap must drop the hub's tree and
// the trajectory must stay identical to the linear path under the same
// schedule.
func TestAggHubDeathMidRun(t *testing.T) {
	testutil.NoLeak(t)
	mk := func(cutoff int) *Network[int] {
		net := New[int](graph.PLaw(256, 2, 3, 5), aggProbe{}, func(v int) int {
			if v%7 == 1 {
				return 0
			}
			return 2
		}, 1)
		net.SetAggDegreeCutoff(cutoff)
		net.OnBeforeRound = func(round int) {
			if round == 4 {
				net.G.RemoveNode(0) // copy-0 hub dies between rounds 3 and 4
			}
			if round == 6 {
				net.G.RemoveNode(256) // copy-1 hub too
			}
		}
		return net
	}
	agg, lin := mk(8), mk(1<<30)
	if agg.AggStats().Hubs != 0 {
		t.Fatal("stats before any round should be empty")
	}
	assertSameTrajectory(t, 10, agg, lin, func(net *Network[int]) { net.SyncRound() })
	if s := agg.AggStats(); s.Hubs == 0 {
		t.Fatalf("power-law block should still have surviving hubs at cutoff 8: %+v", s)
	}
	if hubs := agg.agg.hubOf; hubs[0] != -1 || hubs[256] != -1 {
		t.Fatal("dead hubs still mapped to trees after the CSR swap")
	}
}

// TestAggDegreeCrossesCutoff covers both crossing directions: edge
// removals drag a hub below the cutoff (it must revert to linear scans),
// and lowering the cutoff mid-run promotes a node into a hub.
func TestAggDegreeCrossesCutoff(t *testing.T) {
	testutil.NoLeak(t)
	agg := New[int](graph.Star(40), aggProbe{}, starInit(6), 1)
	lin := New[int](graph.Star(40), aggProbe{}, starInit(6), 1)
	agg.SetAggDegreeCutoff(30)
	lin.SetAggDegreeCutoff(1 << 30)
	step := func(net *Network[int]) { net.SyncRound() }
	assertSameTrajectory(t, 2, agg, lin, step)
	if agg.AggStats().Hubs != 1 {
		t.Fatalf("degree 39 >= cutoff 30 should make node 0 a hub: %+v", agg.AggStats())
	}
	// Downward: prune leaves 25..39 — degree 24 drops below cutoff 30.
	for v := 25; v < 40; v++ {
		agg.G.RemoveNode(v)
		lin.G.RemoveNode(v)
	}
	assertSameTrajectory(t, 2, agg, lin, step)
	if s := agg.AggStats(); s.Hubs != 0 {
		t.Fatalf("hub should be demoted after dropping below the cutoff: %+v", s)
	}
	// Upward: lowering the cutoff re-promotes it.
	agg.SetAggDegreeCutoff(8)
	views := agg.AggStats().HubViews
	assertSameTrajectory(t, 2, agg, lin, step)
	if s := agg.AggStats(); s.Hubs != 1 || s.HubViews <= views {
		t.Fatalf("hub should be re-promoted after lowering the cutoff: %+v", s)
	}
}

// TestAggSnapshotSwapStaleness pins the pointer-identity rule directly:
// an edge removal that does NOT change any degree past the cutoff still
// swaps the CSR pointer, and the aggregation metadata must follow it (the
// old tree aliases the old snapshot's neighbour row).
func TestAggSnapshotSwapStaleness(t *testing.T) {
	testutil.NoLeak(t)
	g := graph.Star(100)
	for v := 50; v < 60; v++ { // a few leaf-leaf chords
		g.AddEdge(v, v+10)
	}
	agg := New[int](g, aggProbe{}, starInit(9), 1)
	lin := New[int](g.Clone(), aggProbe{}, starInit(9), 1)
	agg.SetAggDegreeCutoff(8)
	lin.SetAggDegreeCutoff(1 << 30)
	step := func(net *Network[int]) { net.SyncRound() }
	assertSameTrajectory(t, 2, agg, lin, step)
	before := agg.agg
	agg.G.RemoveEdge(50, 60)
	lin.G.RemoveEdge(50, 60)
	assertSameTrajectory(t, 3, agg, lin, step)
	if agg.agg == before {
		t.Fatal("aggregation metadata survived a CSR snapshot swap")
	}
}

// TestAggRestoreInvalidates checks the checkpoint path: RestoreStates
// and SetState must stale the trees so the next round rebuilds from the
// restored vector instead of serving cached aggregates.
func TestAggRestoreInvalidates(t *testing.T) {
	testutil.NoLeak(t)
	agg := New[int](graph.Star(300), aggProbe{}, starInit(17), 1)
	lin := New[int](graph.Star(300), aggProbe{}, starInit(17), 1)
	agg.SetAggDegreeCutoff(8)
	lin.SetAggDegreeCutoff(1 << 30)
	step := func(net *Network[int]) { net.SyncRound() }
	assertSameTrajectory(t, 4, agg, lin, step)

	snapshot := make([]int, len(agg.States()))
	copy(snapshot, agg.States())
	rounds := agg.Rounds
	assertSameTrajectory(t, 3, agg, lin, step)

	if err := agg.RestoreStates(snapshot, rounds); err != nil {
		t.Fatal(err)
	}
	if err := lin.RestoreStates(snapshot, rounds); err != nil {
		t.Fatal(err)
	}
	rebuilds := agg.AggStats().TreeRebuilds
	assertSameTrajectory(t, 3, agg, lin, step)
	if agg.AggStats().TreeRebuilds == rebuilds {
		t.Fatal("restore did not force a tree rebuild")
	}

	agg.SetState(250, 0) // out-of-band poke, mirrored on the linear twin
	lin.SetState(250, 0)
	assertSameTrajectory(t, 3, agg, lin, step)
}

// TestAggMapFallbackStaysLinear: automata without dense views (or
// without a footprint) must never engage trees, footprint or not.
func TestAggMapFallbackStaysLinear(t *testing.T) {
	testutil.NoLeak(t)
	mapNet := New[int](graph.Star(200), StepFunc[int](aggProbe{}.Step), starInit(9), 1)
	mapNet.SetAggDegreeCutoff(2)
	mapNet.SyncRound()
	if s := mapNet.AggStats(); s.Hubs != 0 {
		t.Fatalf("map-mode automaton engaged aggregation: %+v", s)
	}
	noFoot := New[int](graph.Star(200), hugeDense{}, func(v int) int { return v % 3 }, 1)
	noFoot.SetAggDegreeCutoff(2)
	noFoot.SyncRound()
	if s := noFoot.AggStats(); s.Hubs != 0 {
		t.Fatalf("footprint-less automaton engaged aggregation: %+v", s)
	}
}

func TestSetAggDegreeCutoffRejectsNegative(t *testing.T) {
	testutil.NoLeak(t)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on negative cutoff")
		}
	}()
	New[int](graph.Star(10), aggProbe{}, starInit(1), 1).SetAggDegreeCutoff(-1)
}
