package fssga

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"

	"repro/internal/testutil"
)

// TestLazySourceRewind: rewinding a counting source to a recorded
// position yields a draw stream bit-identical to the uninterrupted
// one, regardless of which mix of Int63/Uint64 calls produced the
// position (both advance the underlying rngSource one step per call).
func TestLazySourceRewind(t *testing.T) {
	testutil.NoLeak(t)
	const seed, warm, tail = 99, 37, 64
	ref := &lazySource{seed: seed}
	for i := 0; i < warm; i++ {
		if i%3 == 0 {
			ref.Uint64()
		} else {
			ref.Int63()
		}
	}
	pos := ref.position()
	if pos != warm {
		t.Fatalf("position = %d after %d draws", pos, warm)
	}
	future := make([]uint64, tail)
	for i := range future {
		future[i] = ref.Uint64()
	}

	re := &lazySource{seed: seed}
	re.rewind(pos)
	if re.position() != pos {
		t.Fatalf("rewound position = %d, want %d", re.position(), pos)
	}
	for i, want := range future {
		if got := re.Uint64(); got != want {
			t.Fatalf("draw %d after rewind: got %d, want %d", i, got, want)
		}
	}

	// rewind(0) restores the pristine lazy state: no table built.
	re.rewind(0)
	if re.src != nil || re.position() != 0 {
		t.Fatal("rewind(0) should drop the generator entirely")
	}
	fresh := &lazySource{seed: seed}
	if re.Uint64() != fresh.Uint64() {
		t.Fatal("rewind(0) stream differs from a fresh source")
	}
}

// TestRNGPositionsDeterministicNil: a network whose automaton never
// draws reports a nil position vector forever — checkpoints of
// deterministic runs carry no stream state.
func TestRNGPositionsDeterministicNil(t *testing.T) {
	testutil.NoLeak(t)
	net := newMaxNet(graph.Torus(4, 4), 7)
	for i := 0; i < 6; i++ {
		net.SyncRound()
	}
	if net.RNGDrawn() {
		t.Fatal("deterministic automaton reported RNG use")
	}
	if pos := net.RNGPositions(); pos != nil {
		t.Fatalf("want nil positions, got %v", pos)
	}
	if err := net.RestoreRNGPositions(nil); err != nil {
		t.Fatalf("nil restore: %v", err)
	}
}

// TestRestoreResumeFidelity: capture states + RNG positions at round k,
// rebuild a fresh network over the same topology and seed, restore, and
// run both to round k+m — every subsequent round must be bit-identical,
// across the serial, parallel, and frontier engines.
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
	pos := ref.RNGPositions()
	if pos == nil {
		t.Fatal("coin automaton should have drawn")
	}

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
		if err := res.RestoreRNGPositions(pos); err != nil {
			t.Fatalf("%s: RestoreRNGPositions: %v", name, err)
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
	if err := net.RestoreRNGPositions(make([]uint64, 3)); err == nil {
		t.Fatal("short position vector accepted")
	}
}

// TestLazyRandCountsThroughRand: draws made through the rand.Rand
// wrapper (the path automata use) are all counted, including derived
// methods that consume multiple source steps.
func TestLazyRandCountsThroughRand(t *testing.T) {
	testutil.NoLeak(t)
	src := &lazySource{seed: 3}
	r := rand.New(src)
	r.Intn(7)
	r.Float64()
	r.Uint64()
	if src.position() == 0 {
		t.Fatal("draws through rand.Rand not counted")
	}
	// Reference: same calls on a twin, then verify rewind reproduces
	// the continuation exactly even with derived-method draws.
	pos := src.position()
	next := r.Uint64()
	twin := &lazySource{seed: 3}
	twin.rewind(pos)
	if got := rand.New(twin).Uint64(); got != next {
		t.Fatalf("continuation after derived draws: got %d, want %d", got, next)
	}
}
