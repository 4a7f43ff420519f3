package election

import (
	"testing"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// TestElectionRunsDense holds an election network, randomized from its
// first round, to the linear-scan reference on the same per-step
// streams. It keeps the name it had when election ran on dense views
// and was checked against a map-view replica.
func TestElectionRunsDense(t *testing.T) {
	g := graph.Cycle(8)
	tr := New(g, 5)
	want := append([]State(nil), tr.Net.States()...)
	for r := 0; r < 200; r++ {
		tr.Net.SyncRound()
		want = linearRound(g, automaton{}, want, tr.Net.Seed(), uint64(r))
	}
	for v := 0; v < 8; v++ {
		if tr.Net.State(v) != want[v] {
			t.Fatalf("round 200: state[%d] is %+v, the reference's %+v", v, tr.Net.State(v), want[v])
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
