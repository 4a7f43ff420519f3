package bfs

import (
	"testing"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// TestBFSRunsDense holds a BFS network to the linear-scan reference
// round by round. It keeps the name it had when BFS ran on dense views
// and was checked against a map-view replica.
func TestBFSRunsDense(t *testing.T) {
	g := graph.Grid(6, 6)
	net, err := NewNetwork(g, 0, []int{35}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]State(nil), net.States()...)
	for r := 0; r < 40; r++ {
		net.SyncRound()
		want = linearRound(g, automaton{}, want, net.Seed(), uint64(r))
		for v := 0; v < 36; v++ {
			if net.State(v) != want[v] {
				t.Fatalf("round %d: state[%d] is %+v, the reference's %+v", r+1, v, net.State(v), want[v])
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
