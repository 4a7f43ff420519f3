package fssga

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"weak"

	"repro/internal/graph"
	"repro/internal/testutil"
)

// TestShardSpanAlignment: chunk lengths are multiples of shardAlign, never
// shorter, and large work sets give every worker several chunks to steal.
func TestShardSpanAlignment(t *testing.T) {
	testutil.NoLeak(t)
	for _, tc := range []struct{ n, workers int }{
		{65, 2}, {4096, 8}, {100000, 8}, {1 << 20, 16}, {130, 7},
	} {
		span := shardSpan(tc.n, tc.workers)
		if span%shardAlign != 0 {
			t.Fatalf("shardSpan(%d, %d) = %d, not a multiple of %d", tc.n, tc.workers, span, shardAlign)
		}
		if span < shardAlign {
			t.Fatalf("shardSpan(%d, %d) = %d < %d", tc.n, tc.workers, span, shardAlign)
		}
		shards := (tc.n + span - 1) / span
		if shards < 1 {
			t.Fatalf("no shards for n=%d w=%d", tc.n, tc.workers)
		}
		// Over-partitioning: when n is large enough, every worker should
		// see several shards to steal.
		if tc.n >= tc.workers*shardsPerWorker*shardAlign && shards < tc.workers {
			t.Fatalf("n=%d w=%d: only %d shards", tc.n, tc.workers, shards)
		}
	}
}

// TestNewFromCSRMatchesNew: a CSR-backed network over a streaming
// generator is bit-identical to a Graph-backed one over the same
// topology — serial, sharded-parallel, and frontier rounds alike.
func TestNewFromCSRMatchesNew(t *testing.T) {
	testutil.NoLeak(t)
	const rows, cols = 12, 23
	n := rows * cols
	init := func(v int) int { return v % 8 }
	for _, seed := range []int64{1, 9} {
		ref := New[int](graph.Torus(rows, cols), denseMax{8}, init, seed)
		csr := NewFromCSR[int](graph.TorusCSR(rows, cols), denseMax{8}, init, seed)
		if csr.G != nil {
			t.Fatal("NewFromCSR must leave G nil")
		}
		for r := 0; r < 6; r++ {
			ref.SyncRound()
			switch r % 3 {
			case 0:
				csr.SyncRound()
			case 1:
				csr.SyncRoundParallel(4)
			case 2:
				if !csr.SyncRoundParallelFrontier(3) {
					// A frontier round may quiesce early; mirror by
					// checking the reference quiesced too.
					if !ref.Quiescent() {
						t.Fatal("frontier round quiesced but reference did not")
					}
				}
			}
			for v := 0; v < n; v++ {
				if ref.State(v) != csr.State(v) {
					t.Fatalf("seed %d round %d node %d: graph-backed %d, CSR-backed %d",
						seed, r+1, v, ref.State(v), csr.State(v))
				}
			}
		}
		csr.Close()
	}
}

// TestNewFromCSRProbabilistic: per-node random streams are seed-derived,
// so CSR-backed and graph-backed networks agree even for automata that
// consume randomness.
func TestNewFromCSRProbabilistic(t *testing.T) {
	testutil.NoLeak(t)
	const n = 150
	init := func(v int) int { return v % 2 }
	a := New[int](graph.Cycle(n), denseCoin{}, init, 5)
	defer a.Close()
	b := NewFromCSR[int](graph.CycleCSR(n), denseCoin{}, init, 5)
	defer b.Close()
	for r := 0; r < 8; r++ {
		a.SyncRoundParallel(3)
		b.SyncRoundParallel(5)
		for v := 0; v < n; v++ {
			if a.State(v) != b.State(v) {
				t.Fatalf("round %d node %d: %d vs %d", r+1, v, a.State(v), b.State(v))
			}
		}
	}
}

// TestParallelFrontierMatchesSerialFrontier: a frontier chunked across
// workers must reproduce the inline frontier trajectory exactly —
// states, committed-round counts, and quiescence detection — including
// across mid-run faults that invalidate the change list.
func TestParallelFrontierMatchesSerialFrontier(t *testing.T) {
	testutil.NoLeak(t)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g0 := graph.RandomConnectedGNP(200, 0.02, rng)
		victim := rng.Intn(200)
		init := func(v int) int { return v % 8 }

		serial := New[int](g0.Clone(), denseMax{8}, init, seed)
		par := New[int](g0.Clone(), denseMax{8}, init, seed)
		defer par.Close()
		workers := 2 + rng.Intn(5)

		for r := 1; r <= 12; r++ {
			sc := serial.SyncRoundFrontier()
			pc := par.SyncRoundParallelFrontier(workers)
			if sc != pc {
				t.Fatalf("seed %d round %d: serial changed=%v, parallel changed=%v", seed, r, sc, pc)
			}
			if serial.Rounds != par.Rounds {
				t.Fatalf("seed %d round %d: Rounds %d vs %d", seed, r, serial.Rounds, par.Rounds)
			}
			for v := 0; v < 200; v++ {
				if serial.State(v) != par.State(v) {
					t.Fatalf("seed %d round %d node %d: %d vs %d",
						seed, r, v, serial.State(v), par.State(v))
				}
			}
			if r == 4 {
				// Identical mid-run fault on both replicas; the next
				// round must observe the shrunken topology.
				serial.G.RemoveNode(victim)
				par.G.RemoveNode(victim)
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickN(t, 121, 8)); err != nil {
		t.Fatal(err)
	}
}

// runParallelUntilQuiescent is RunSyncUntilQuiescent on the shard pool.
func runParallelUntilQuiescent[S comparable](net *Network[S], maxRounds, workers int) (rounds int, finished bool) {
	for r := 0; r < maxRounds; r++ {
		if !net.SyncRoundParallelFrontier(workers) {
			return r, true
		}
	}
	return maxRounds, net.Quiescent()
}

// TestParallelFrontierQuiescenceSemantics: a quiescent parallel frontier
// round commits nothing, exactly like the serial frontier round.
func TestParallelFrontierQuiescenceSemantics(t *testing.T) {
	testutil.NoLeak(t)
	net := New[int](graph.Grid(10, 10), denseMax{100}, func(v int) int { return v }, 1)
	defer net.Close()
	rounds, finished := runParallelUntilQuiescent(net, 100, 4)
	if !finished {
		t.Fatal("did not quiesce")
	}
	// Max value 99 spreads over the grid's diameter (18).
	if rounds < 1 || rounds > 19 {
		t.Fatalf("rounds = %d", rounds)
	}
	for v := 0; v < 100; v++ {
		if net.State(v) != 99 {
			t.Fatalf("state[%d] = %d", v, net.State(v))
		}
	}
	got := net.Rounds
	if again, fin := runParallelUntilQuiescent(net, 10, 4); again != 0 || !fin {
		t.Fatalf("already-quiescent run: rounds=%d finished=%v", again, fin)
	}
	if net.Rounds != got {
		t.Fatal("quiescent rounds must not be committed")
	}
	// Serial and parallel frontier trajectories agree on round counts.
	ref := New[int](graph.Grid(10, 10), denseMax{100}, func(v int) int { return v }, 1)
	refRounds, _ := ref.RunSyncUntilQuiescent(100)
	if refRounds != rounds {
		t.Fatalf("parallel frontier ran %d rounds, serial frontier %d", rounds, refRounds)
	}
}

// TestParallelFrontierAfterOutOfBandChange: SetState between frontier
// rounds must invalidate the change list so the change propagates.
func TestParallelFrontierAfterOutOfBandChange(t *testing.T) {
	testutil.NoLeak(t)
	net := New[int](graph.Path(300), denseMax{1000}, func(v int) int { return 0 }, 1)
	defer net.Close()
	if changed := net.SyncRoundParallelFrontier(4); changed {
		t.Fatal("all-zero network should be quiescent")
	}
	net.SetState(0, 999)
	rounds, finished := runParallelUntilQuiescent(net, 400, 4)
	if !finished || rounds != 299 {
		t.Fatalf("rounds=%d finished=%v, want 299, true", rounds, finished)
	}
	if net.State(299) != 999 {
		t.Fatalf("state[299] = %d, want 999", net.State(299))
	}
}

// TestPoolLifecycle: Close is idempotent, parallel rounds after Close
// restart a fresh pool, and growing the worker count grows the pool.
func TestPoolLifecycle(t *testing.T) {
	testutil.NoLeak(t)
	net := newMaxNet(graph.Cycle(500), 1)
	net.SyncRoundParallel(2)
	if net.pool == nil || net.pool.workers != 2 {
		t.Fatalf("pool workers = %v", net.pool)
	}
	first := net.pool
	net.SyncRoundParallel(4) // grow
	if net.pool == first || net.pool.workers != 4 {
		t.Fatal("pool did not grow for more workers")
	}
	grown := net.pool
	net.SyncRoundParallel(3) // shrink request reuses the bigger pool
	if net.pool != grown {
		t.Fatal("pool should be reused for fewer workers")
	}
	net.Close()
	net.Close() // idempotent
	net.SyncRoundParallel(4)
	if net.pool == grown || net.pool.closed.Load() {
		t.Fatal("round after Close must start a fresh pool")
	}
	net.Close()

	// Closing a network that never ran a parallel round is a no-op.
	fresh := newMaxNet(graph.Path(3), 1)
	fresh.Close()
}

// TestClosedNetworkIsCollected: Close clears the finalizer that the first
// pool round armed, so a closed network is freed once its caller drops
// it. The finalizer sits on a cycle (each node's lazy source points back
// into the network), and the runtime never frees such a cycle while the
// finalizer is set.
func TestClosedNetworkIsCollected(t *testing.T) {
	testutil.NoLeak(t)
	net := newMaxNet(graph.Cycle(supN), 1)
	net.SyncRoundParallel(2)
	if net.pool == nil {
		t.Fatal("a multi-chunk round did not start the pool")
	}
	net.Close()
	wp := weak.Make(net)
	net = nil
	for i := 0; i < 5 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("closed network is still reachable after GC: Close left it pinned")
	}
}

// TestHookKillDuringParallelRound: an OnBeforeRound kill is observed by
// the very round it precedes, on the sharded path (the CSR snapshot is
// taken after the hook).
func TestHookKillDuringParallelRound(t *testing.T) {
	testutil.NoLeak(t)
	ref := graph.Path(200)
	refNet := newMaxNet(ref, 1)
	refNet.SyncRound()
	ref.RemoveNode(199)
	refNet.SyncRound()

	g := graph.Path(200)
	net := newMaxNet(g, 1)
	defer net.Close()
	net.OnBeforeRound = func(r int) {
		if r == 2 {
			g.RemoveNode(199)
		}
	}
	net.SyncRoundParallel(4)
	net.SyncRoundParallel(4)
	for v := 0; v < 199; v++ {
		if net.State(v) != refNet.State(v) {
			t.Fatalf("node %d: parallel hook kill gave %d, serial injector-style kill gave %d",
				v, net.State(v), refNet.State(v))
		}
	}
}

// TestLazySourceStreamsMatchEager: the lazy per-node sources must
// produce exactly the streams of an eagerly built rand.NewSource —
// chaos replay digests and cross-run determinism depend on it.
func TestLazySourceStreamsMatchEager(t *testing.T) {
	testutil.NoLeak(t)
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		eager := rand.New(rand.NewSource(seed))
		lazy := lazyRand(seed)
		for i := 0; i < 50; i++ {
			switch i % 4 {
			case 0:
				if e, l := eager.Int63(), lazy.Int63(); e != l {
					t.Fatalf("seed %d draw %d: Int63 %d vs %d", seed, i, e, l)
				}
			case 1:
				if e, l := eager.Uint64(), lazy.Uint64(); e != l {
					t.Fatalf("seed %d draw %d: Uint64 %d vs %d", seed, i, e, l)
				}
			case 2:
				if e, l := eager.Intn(1000), lazy.Intn(1000); e != l {
					t.Fatalf("seed %d draw %d: Intn %d vs %d", seed, i, e, l)
				}
			case 3:
				if e, l := eager.Float64(), lazy.Float64(); e != l {
					t.Fatalf("seed %d draw %d: Float64 %v vs %v", seed, i, e, l)
				}
			}
		}
		// Re-seeding resets the stream lazily but identically.
		eager.Seed(seed ^ 42)
		lazy.Seed(seed ^ 42)
		if e, l := eager.Int63(), lazy.Int63(); e != l {
			t.Fatalf("seed %d after reseed: %d vs %d", seed, e, l)
		}
	}
}
