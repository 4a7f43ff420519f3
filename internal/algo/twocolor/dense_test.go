package twocolor

import (
	"testing"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// TestDenseWiring: a colouring run matches the linear-scan reference
// round by round, on an even cycle (coloured) and an odd one (failed).
// The test keeps the name it had when it checked the automaton's dense
// state enumeration.
func TestDenseWiring(t *testing.T) {
	for _, n := range []int{8, 9} {
		g := graph.Cycle(n)
		net := NewNetwork(g, 0, 1)
		want := append([]State(nil), net.States()...)
		for r := 0; r < n+2; r++ {
			net.SyncRound()
			want = linearRound(g, automaton{}, want, net.Seed(), uint64(r))
			for v := 0; v < n; v++ {
				if net.State(v) != want[v] {
					t.Fatalf("cycle %d, round %d: state[%d] is %v, the reference's %v", n, r+1, v, net.State(v), want[v])
				}
			}
		}
	}
}

// linearRound is the reference round: every node with neighbours in g
// steps on a NewView of their states in prev, on the stream a network
// seeded seed draws from at the given epoch.
func linearRound(g *graph.Graph, auto fssga.Automaton[State], prev []State, seed int64, epoch uint64) []State {
	next := append([]State(nil), prev...)
	for v := range prev {
		var ns []State
		for _, u := range g.SortedNeighbors(v, nil) {
			ns = append(ns, prev[u])
		}
		if len(ns) > 0 {
			next[v] = auto.Step(prev[v], fssga.NewView(ns), fssga.KeyedRand(fssga.StreamKey(seed, v, epoch)))
		}
	}
	return next
}
