package fssga

// Hub views. Every view, a hub's included, is one linear scan of the
// node's CSR row (buildView). These tests hold hub views to the
// definition itself: linearRound recomputes a round straight from the
// mutable graph, stepping every live node on a NewView of its
// neighbours' states. The tests named Agg* keep the names they had when
// they compared the hub aggregation trees with linear scans.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/testutil"
)

// aggProbe is a deterministic automaton for hub views: states 0/1
// toggle unconditionally (sustained frontier activity), state 2 holds
// while any toggler is visible and decays to the absorbing 3 otherwise.
type aggProbe struct{}

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

// linearRound is the reference round: every live node with a neighbour
// steps on a NewView of its neighbours' states in prev, read from g
// directly; dead and isolated nodes keep their state. The automata here
// are deterministic, so no stream is passed.
func linearRound(g *graph.Graph, auto Automaton[int], prev []int) []int {
	next := append([]int(nil), prev...)
	var nbrs, seen []int
	for v := range prev {
		nbrs = g.SortedNeighbors(v, nbrs[:0])
		if len(nbrs) == 0 {
			continue
		}
		seen = seen[:0]
		for _, u := range nbrs {
			seen = append(seen, prev[u])
		}
		next[v] = auto.Step(prev[v], NewView(seen), nil)
	}
	return next
}

// assertMatchesLinear makes calls engine calls and fails on the first
// node whose state differs from linearRound over the states before the
// call. The reference reads net.G after the call, so topology changes
// made by OnBeforeRound are in it; a frontier call that commits nothing
// must then be a linear fixed point.
func assertMatchesLinear(t *testing.T, calls int, net *Network[int], step func(net *Network[int])) {
	t.Helper()
	for i := 0; i < calls; i++ {
		prev := append([]int(nil), net.states...)
		step(net)
		want := linearRound(net.G, net.auto, prev)
		for v, s := range net.states {
			if s != want[v] {
				t.Fatalf("call %d (round %d) node %d: engine %d, linear scan %d", i+1, net.Rounds, v, s, want[v])
			}
		}
	}
}

func TestHubViewMatchesLinearScan(t *testing.T) {
	testutil.NoLeak(t)
	for _, auto := range []Automaton[int]{aggProbe{}, aggParity{}} {
		for name, step := range map[string]func(net *Network[int]){
			"sync":     func(net *Network[int]) { net.SyncRound() },
			"frontier": func(net *Network[int]) { net.SyncRoundFrontier() },
			"parallel": func(net *Network[int]) { net.SyncRoundParallel(4) },
		} {
			t.Run(name, func(t *testing.T) {
				net := New[int](graph.Star(300), auto, starInit(17), 1)
				assertMatchesLinear(t, 12, net, step)
			})
		}
	}
}

// TestHubViewActivateAndQuiescent covers the two serial probes on a hub:
// an activation steps exactly its node on a linear view, and Quiescent
// agrees with a linear round without perturbing the states.
func TestHubViewActivateAndQuiescent(t *testing.T) {
	testutil.NoLeak(t)
	net := New[int](graph.Star(200), aggProbe{}, starInit(5), 1)
	for i, v := range []int{3, 0, 7, 0, 150, 3, 0} {
		want := append([]int(nil), net.states...)
		want[v] = linearRound(net.G, net.auto, net.states)[v]
		net.Activate(v)
		for u, s := range net.states {
			if s != want[u] {
				t.Fatalf("activation %d of node %d: node %d is %d, linear scan %d", i+1, v, u, s, want[u])
			}
		}
	}
	// Togglers keep the first network busy; the second settles after
	// one round (idle leaves see no toggler and decay to 3).
	settled := New[int](graph.Star(200), aggProbe{}, starInit(0), 1)
	settled.SyncRound()
	for _, n := range []*Network[int]{net, settled} {
		before := append([]int(nil), n.states...)
		next := linearRound(n.G, n.auto, before)
		quiet := true
		for v := range next {
			quiet = quiet && next[v] == before[v]
		}
		if got := n.Quiescent(); got != quiet {
			t.Fatalf("Quiescent = %v, linear round says %v", got, quiet)
		}
		for v, s := range n.states {
			if s != before[v] {
				t.Fatalf("Quiescent changed node %d from %d to %d", v, before[v], s)
			}
		}
	}
}

// TestAggIncrementalPath pins what a hub costs a steady frontier round:
// with togglers 1..16 on a degree-999 star, each round steps the
// togglers and the hub, whose view is still its full row, and none of
// the 983 settled leaves.
func TestAggIncrementalPath(t *testing.T) {
	testutil.NoLeak(t)
	net := New[int](graph.Star(1000), aggProbe{}, starInit(16), 1)
	assertMatchesLinear(t, 3, net, func(net *Network[int]) { net.SyncRoundFrontier() }) // settle: idle leaves decay to 3
	for r := 0; r < 10; r++ {
		net.work = net.work[:0]
		assertMatchesLinear(t, 1, net, func(net *Network[int]) {
			if !net.SyncRoundFrontier() {
				t.Fatal("togglers should never quiesce")
			}
		})
		if len(net.work) != 17 {
			t.Fatalf("steady frontier round %d stepped %d nodes, want the 16 togglers and the hub", r+1, len(net.work))
		}
	}
}

// TestAggHubDeathMidRun kills hubs through the pre-round hook (the chaos
// adversaries' delivery path): from the next round on, the dead hub is
// frozen and out of every survivor's view.
func TestAggHubDeathMidRun(t *testing.T) {
	testutil.NoLeak(t)
	const block = 256
	net := New[int](graph.PLaw(block, 2, 3, 5), aggParity{}, func(v int) int {
		if v%7 == 1 {
			return 0
		}
		return 2
	}, 1)
	hubs := [2]int{} // the highest-degree node of each copy
	for _, v := range net.G.Nodes(nil) {
		if c := v / block; net.G.Degree(v) > net.G.Degree(hubs[c]) {
			hubs[c] = v
		}
	}
	for _, hub := range hubs {
		if d := net.G.Degree(hub); d < 16 {
			t.Fatalf("node %d has degree %d; the test needs a hub", hub, d)
		}
	}
	net.OnBeforeRound = func(round int) {
		if round == 4 {
			net.G.RemoveNode(hubs[0]) // copy-0 hub dies between rounds 3 and 4
		}
		if round == 6 {
			net.G.RemoveNode(hubs[1]) // copy-1 hub too
		}
	}
	assertMatchesLinear(t, 10, net, func(net *Network[int]) { net.SyncRound() })
	for _, hub := range hubs {
		if row := net.Topology().Neighbors(hub); len(row) != 0 {
			t.Fatalf("dead hub %d still has a row of %d neighbours in the snapshot", hub, len(row))
		}
	}
}

// TestAggDegreeCrossesCutoff moves a hub's degree both ways mid-run:
// removing edges cuts it from 39 to 24, re-adding them restores it. The
// hub reads a parity over the leaves, so a view of the wrong row shows.
func TestAggDegreeCrossesCutoff(t *testing.T) {
	testutil.NoLeak(t)
	net := New[int](graph.Star(40), aggParity{}, starInit(6), 1)
	step := func(net *Network[int]) { net.SyncRound() }
	assertMatchesLinear(t, 2, net, step)
	for v := 25; v < 40; v++ {
		net.G.RemoveEdge(0, v)
	}
	assertMatchesLinear(t, 2, net, step)
	if d := len(net.Topology().Neighbors(0)); d != 24 {
		t.Fatalf("hub degree %d after pruning, want 24", d)
	}
	for v := 25; v < 40; v++ {
		net.G.AddEdge(0, v)
	}
	assertMatchesLinear(t, 2, net, step)
	if d := len(net.Topology().Neighbors(0)); d != 39 {
		t.Fatalf("hub degree %d after regrowth, want 39", d)
	}
}

// TestAggSnapshotSwapStaleness pins the pointer-identity rule: an edge
// removal away from the hub still swaps the topology snapshot, and the
// next views read the new one.
func TestAggSnapshotSwapStaleness(t *testing.T) {
	testutil.NoLeak(t)
	g := graph.Star(100)
	for v := 50; v < 60; v++ { // a few leaf-leaf chords
		g.AddEdge(v, v+10)
	}
	net := New[int](g, aggParity{}, starInit(9), 1)
	step := func(net *Network[int]) { net.SyncRound() }
	assertMatchesLinear(t, 2, net, step)
	before := net.Topology()
	net.G.RemoveEdge(50, 60)
	assertMatchesLinear(t, 3, net, step)
	after := net.Topology()
	if after == before {
		t.Fatal("topology snapshot survived a graph mutation")
	}
	for _, u := range after.Neighbors(50) {
		if u == 60 {
			t.Fatal("new snapshot still holds the removed edge")
		}
	}
}

// TestAggRestoreInvalidates checks the checkpoint path on frontier
// rounds: RestoreStates and SetState must drop the change list, so the
// next frontier round steps every node instead of the stale frontier
// (the togglers and the hub, once the idle leaves have settled).
func TestAggRestoreInvalidates(t *testing.T) {
	testutil.NoLeak(t)
	net := New[int](graph.Star(300), aggProbe{}, starInit(17), 1)
	step := func(net *Network[int]) { net.SyncRoundFrontier() }
	snapshot := append([]int(nil), net.States()...)
	rounds := net.Rounds
	assertMatchesLinear(t, 3, net, step)
	replay := append([]int(nil), net.States()...)
	assertMatchesLinear(t, 4, net, step)

	if err := net.RestoreStates(snapshot, rounds); err != nil {
		t.Fatal(err)
	}
	assertMatchesLinear(t, 3, net, step)
	for v, s := range net.States() {
		if s != replay[v] {
			t.Fatalf("node %d: %d after the restored rounds, %d the first time", v, s, replay[v])
		}
	}

	net.SetState(250, 0) // out-of-band poke: a settled leaf starts toggling
	assertMatchesLinear(t, 3, net, step)
}

// TestAggMapFallbackStaysLinear: the automata that ran on map views
// before every network numbered its states, a StepFunc and one with a
// state per node, build their hub views like any other, and those match
// the linear scan too.
func TestAggMapFallbackStaysLinear(t *testing.T) {
	testutil.NoLeak(t)
	for _, net := range []*Network[int]{
		New[int](graph.Star(200), StepFunc[int](aggParity{}.Step), starInit(9), 1),
		New[int](graph.Star(200), maxAutomaton{}, func(v int) int { return v }, 1),
	} {
		assertMatchesLinear(t, 8, net, func(net *Network[int]) { net.SyncRound() })
	}
}

// foldProbe: states 0 and 1 hold; a node in a higher state reads its
// neighbours in state 1 through a cap-4 count and a mod-3 count.
type foldProbe struct{}

func (foldProbe) Step(self int, view *View[int], rnd *rand.Rand) int {
	if self < 2 {
		return self
	}
	return 2 + 3*view.Count(4, func(s int) bool { return s == 1 }) + view.CountMod(3, func(s int) bool { return s == 1 })
}

// TestQuickTreeFoldMatchesDirectProjection is the property a hub's view
// must have whatever order its row lists the neighbours in: stepped
// through the engine, the hub reads the capped and the periodic count
// of the true number of marked leaves, placed at random positions among
// unmarked ones.
func TestQuickTreeFoldMatchesDirectProjection(t *testing.T) {
	testutil.NoLeak(t)
	prop := func(count, spread uint16, shapeSeed int64) bool {
		marked, unmarked := int(count%500), 1+int(spread%100)
		perm := rand.New(rand.NewSource(shapeSeed)).Perm(marked + unmarked)
		net := New[int](graph.Star(1+marked+unmarked), foldProbe{}, func(v int) int {
			switch {
			case v == 0:
				return 2
			case perm[v-1] < marked:
				return 1
			}
			return 0
		}, 1)
		net.SyncRound()
		return net.State(0) == 2+3*min(marked, 4)+marked%3
	}
	if err := quick.Check(prop, testutil.Quick(t, 0xa99)); err != nil {
		t.Fatal(err)
	}
}

// FuzzAggregateFold drives the fold that builds a view with arbitrary
// neighbourhoods and observation caps. Byte i of data puts data[i]
// leaves in state i mod 4 around a hub; the hub's view must report, per
// state, the exact multiplicity (ForEach), the thresholded count
// (CountState, Count) and the periodic count (CountMod) of the true
// totals, with the leaf states laid along the hub's row in listed and
// in reversed order.
func FuzzAggregateFold(f *testing.F) {
	f.Add(byte(1), byte(0), []byte{1, 0, 1})             // presence footprint
	f.Add(byte(0), byte(1), []byte{3, 1, 4, 1, 5})       // pure parity
	f.Add(byte(2), byte(0), []byte{2, 2})                // capped count
	f.Add(byte(5), byte(3), []byte{7, 0, 9, 1})          // mixed threshold+period
	f.Add(byte(0), byte(0), []byte{})                    // empty neighbourhood
	f.Add(byte(200), byte(54), []byte{255, 255, 255, 1}) // near the uint8 ceiling
	f.Fuzz(func(t *testing.T, tb, mb byte, data []byte) {
		thresh := 1 + int(tb) // caps are positive
		period := 1 + int(mb)%8
		if len(data) > 64 {
			data = data[:64]
		}
		var want [4]int
		var leaves []int
		for i, b := range data {
			for j := 0; j < int(b); j++ {
				leaves = append(leaves, i%4)
			}
			want[i%4] += int(b)
		}
		odd := func(s int) bool { return s%2 == 1 }
		for _, reversed := range []bool{false, true} {
			g := graph.New(1 + len(leaves))
			for v := 1; v <= len(leaves); v++ {
				g.AddEdge(0, v)
			}
			net := New[int](g, aggProbe{}, func(v int) int {
				if v == 0 {
					return 0
				}
				if reversed {
					return leaves[len(leaves)-v]
				}
				return leaves[v-1]
			}, 1)
			net.sync() // what a step does first
			view := net.buildView(net.serialScratch(), net.topo().Neighbors(0))

			got := make(map[int]int)
			view.ForEach(func(s, c int) { got[s] += c })
			for q := 0; q < 4; q++ {
				if got[q] != want[q] {
					t.Fatalf("reversed=%v: ForEach saw %d of state %d, want %d", reversed, got[q], q, want[q])
				}
				if c, w := view.CountState(q, thresh), min(want[q], thresh); c != w {
					t.Fatalf("reversed=%v: CountState(%d, %d) = %d, want %d", reversed, q, thresh, c, w)
				}
				if c, w := view.CountMod(period, func(s int) bool { return s == q }), want[q]%period; c != w {
					t.Fatalf("reversed=%v: CountMod(%d) of state %d = %d, want %d", reversed, period, q, c, w)
				}
			}
			total, odds := len(leaves), want[1]+want[3]
			if c, w := view.Count(thresh, odd), min(odds, thresh); c != w {
				t.Fatalf("reversed=%v: Count(%d, odd) = %d, want %d", reversed, thresh, c, w)
			}
			if c, w := view.CountMod(period, odd), odds%period; c != w {
				t.Fatalf("reversed=%v: CountMod(%d, odd) = %d, want %d", reversed, period, c, w)
			}
			if c, w := view.DegreeCapped(thresh), min(total, thresh); c != w || view.Empty() != (total == 0) {
				t.Fatalf("reversed=%v: DegreeCapped(%d) = %d, Empty = %v; %d leaves", reversed, thresh, c, view.Empty(), total)
			}
		}
	})
}
