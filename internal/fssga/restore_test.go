package fssga

import (
	"reflect"
	"testing"

	"repro/internal/graph"

	"repro/internal/testutil"
)

// TestRNGPositionsDeterministicNil: the deprecated RNGPositions shim
// reports no stream state, for deterministic and randomized networks
// alike — a checkpoint needs only states and the round counter.
func TestRNGPositionsDeterministicNil(t *testing.T) {
	testutil.NoLeak(t)
	det := newMaxNet(graph.Torus(4, 4), 7)
	coin := New[int](graph.Torus(4, 4), denseCoin{}, func(v int) int { return v % 2 }, 7)
	for i := 0; i < 6; i++ {
		det.SyncRound()
		coin.SyncRound()
	}
	if pos := det.RNGPositions(); pos != nil {
		t.Fatalf("deterministic network: want nil positions, got %v", pos)
	}
	if pos := coin.RNGPositions(); pos != nil {
		t.Fatalf("randomized network: want nil positions, got %v", pos)
	}
}

// TestRestoreResumeFidelity: capture states and the round counter at
// round k of a randomized run, rebuild a fresh network over the same
// topology and seed, restore, and run both to round k+m — every
// subsequent round must be bit-identical, across the serial, parallel,
// and frontier engines. The round counter alone restores the streams.
func TestRestoreResumeFidelity(t *testing.T) {
	testutil.NoLeak(t)
	const k, m, seed = 9, 12, 1234
	build := func() *Network[int] {
		return New[int](graph.Torus(6, 6), denseCoin{}, func(v int) int { return v % 2 }, seed)
	}

	ref := build()
	for i := 0; i < k; i++ {
		ref.SyncRound()
	}
	states := append([]int(nil), ref.States()...)

	engines := map[string]func(net *Network[int]){
		"serial":     func(net *Network[int]) { net.SyncRound() },
		"parallel-1": func(net *Network[int]) { net.SyncRoundParallel(1) },
		"parallel-4": func(net *Network[int]) { net.SyncRoundParallel(4) },
		"frontier":   func(net *Network[int]) { net.SyncRoundFrontier() },
	}
	for name, step := range engines {
		cont := build()
		for i := 0; i < k; i++ {
			cont.SyncRound()
		}
		res := build()
		if err := res.RestoreStates(states, ref.Rounds); err != nil {
			t.Fatalf("%s: RestoreStates: %v", name, err)
		}
		if res.Rounds != k {
			t.Fatalf("%s: restored Rounds = %d, want %d", name, res.Rounds, k)
		}
		for i := 0; i < m; i++ {
			step(cont)
			step(res)
			if !reflect.DeepEqual(cont.States(), res.States()) {
				t.Fatalf("%s: round %d diverged after restore", name, k+i+1)
			}
		}
	}
}

// TestRestoreValidation: mismatched lengths and bad round counters are
// rejected loudly, with the network untouched.
func TestRestoreValidation(t *testing.T) {
	testutil.NoLeak(t)
	net := New[int](graph.Cycle(8), denseCoin{}, func(v int) int { return 0 }, 5)
	if err := net.RestoreStates(make([]int, 3), 1); err == nil {
		t.Fatal("short state vector accepted")
	}
	if err := net.RestoreStates(make([]int, 8), -1); err == nil {
		t.Fatal("negative round counter accepted")
	}
}
