package census

import (
	"math/rand"
	"testing"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// TestDenseForSmallConfigs: small sketch configurations run on the dense
// view path; the paper's 14-bit × 8 default exceeds MaxDenseStates and
// falls back to map views. Both must agree with a forced-map replica.
func TestDenseForSmallConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnectedGNP(48, 0.1, rng)

	small := Config{Bits: 4, Sketches: 3, Seed: 9} // 4096 states: dense
	net, err := NewNetwork(g.Clone(), small)
	if err != nil {
		t.Fatal(err)
	}
	if !net.DenseViews() {
		t.Fatal("small census config should run on the dense view path")
	}

	big := Config{Bits: 14, Sketches: 8, Seed: 9} // 2^112 states: map fallback
	bigNet, err := NewNetwork(g.Clone(), big)
	if err != nil {
		t.Fatal(err)
	}
	if bigNet.DenseViews() {
		t.Fatal("default census config must fall back to map views")
	}

	// Dense and forced-map replicas of the small config agree exactly.
	auto := automaton{bits: small.Bits, sketches: small.Sketches}
	mapped := fssga.New[State](g.Clone(), fssga.StepFunc[State](auto.Step), InitialSketches(small), small.Seed)
	for r := 0; r < 12; r++ {
		net.SyncRound()
		mapped.SyncRound()
	}
	for v := 0; v < 48; v++ {
		if net.State(v) != mapped.State(v) {
			t.Fatalf("state[%d] differs between dense and map paths", v)
		}
	}
}

// TestStateIndexPacksSketches: the index concatenates the active sketch
// words, so distinct states get distinct indices within NumStates.
func TestStateIndexPacksSketches(t *testing.T) {
	a := automaton{bits: 3, sketches: 2}
	if got := a.NumStates(); got != 64 {
		t.Fatalf("NumStates = %d, want 64", got)
	}
	seen := map[int]State{}
	for w0 := uint16(0); w0 < 8; w0++ {
		for w1 := uint16(0); w1 < 8; w1++ {
			s := State{w0, w1}
			i := a.StateIndex(s)
			if i < 0 || i >= 64 {
				t.Fatalf("StateIndex(%v) = %d out of range", s, i)
			}
			if prev, dup := seen[i]; dup {
				t.Fatalf("collision: %v and %v both map to %d", prev, s, i)
			}
			seen[i] = s
		}
	}
}
