package census

import (
	"math/rand"
	"testing"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// TestDenseForSmallConfigs holds census networks to the linear-scan
// reference, with a small sketch configuration and with the paper's
// 14-bit × 8 default, whose states are far too many to enumerate. It
// keeps the name it had when only the small one ran on dense views.
func TestDenseForSmallConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnectedGNP(48, 0.1, rng)
	for _, cfg := range []Config{
		{Bits: 4, Sketches: 3, Seed: 9},
		{Bits: 14, Sketches: 8, Seed: 9},
	} {
		net, err := NewNetwork(g.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		auto := automaton{bits: cfg.Bits, sketches: cfg.Sketches}
		want := append([]State(nil), net.States()...)
		for r := 0; r < 12; r++ {
			net.SyncRound()
			want = linearRound(g, auto, want, net.Seed(), uint64(r))
		}
		for v := 0; v < 48; v++ {
			if net.State(v) != want[v] {
				t.Fatalf("%d×%d sketches: state[%d] is %v, the reference's %v", cfg.Bits, cfg.Sketches, v, net.State(v), want[v])
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
