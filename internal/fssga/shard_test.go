package fssga

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
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
	b := NewFromCSR[int](graph.CycleCSR(n), denseCoin{}, init, 5)
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
// rounds must invalidate the marks so the change propagates.
func TestParallelFrontierAfterOutOfBandChange(t *testing.T) {
	testutil.NoLeak(t)
	net := New[int](graph.Path(300), denseMax{1000}, func(v int) int { return 0 }, 1)
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

// TestPoolLifecycle: the first multi-chunk round starts the pool, a
// round asking for more workers grows it, and one asking for fewer
// reuses it. A w-worker pool runs w − 1 helpers, because the round owner
// is worker 0; a replaced pool's helpers exit.
func TestPoolLifecycle(t *testing.T) {
	testutil.NoLeak(t)
	net := newMaxNet(graph.Cycle(500), 1)
	net.SyncRoundParallel(2)
	if net.pool == nil || net.pool.workers != 2 {
		t.Fatalf("pool workers = %v", net.pool)
	}
	wantHelpers(t, net.pool)
	first := net.pool
	net.SyncRoundParallel(4) // grow
	if net.pool == first || net.pool.workers != 4 {
		t.Fatal("pool did not grow for more workers")
	}
	wantHelpers(t, net.pool)
	grown := net.pool
	net.SyncRoundParallel(3) // shrink request reuses the bigger pool
	if net.pool != grown {
		t.Fatal("pool should be reused for fewer workers")
	}
	wantHelpers(t, net.pool)
	runtime.KeepAlive(net) // a collected network's cleanup would stop the helpers being counted
}

// wantHelpers fails the test unless pool has one wake channel per helper
// and the calling goroutine's live pool helpers are exactly its
// workers − 1. A replaced pool's helpers exit once they see its stop
// channel, so the count is polled for a bounded number of quanta.
func wantHelpers(t *testing.T, pool *shardPool) {
	t.Helper()
	if len(pool.wake) != pool.workers-1 {
		t.Fatalf("%d-worker pool has %d wake channels, want %d", pool.workers, len(pool.wake), pool.workers-1)
	}
	var live []string
	for try := 0; try < poolQuanta; try++ {
		if live = poolHelpers(); len(live) == pool.workers-1 {
			return
		}
		time.Sleep(poolQuantum)
	}
	t.Fatalf("%d-worker pool: %d live helpers, want %d:\n\n%s",
		pool.workers, len(live), pool.workers-1, strings.Join(live, "\n\n"))
}

const (
	// poolQuanta and poolQuantum bound how long a test waits for pool
	// helpers to settle: to exit after a stop, or to park after a spin.
	poolQuanta  = 100
	poolQuantum = 10 * time.Millisecond
)

// poolHelpers returns the stacks of the live pool helpers that the
// calling goroutine started, so that pools of other tests' networks,
// which linger until a GC, do not count.
func poolHelpers() []string {
	buf := make([]byte, 1<<20)
	self := strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
	created := "created by repro/internal/fssga.newShardPool in goroutine " + self + "\n"
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var helpers []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "fssga.(*shardPool).help(") && strings.Contains(g, created) {
			helpers = append(helpers, g)
		}
	}
	return helpers
}

// spinning reports whether a goroutine stack's header ("goroutine 7
// [select]:") shows anything but a goroutine blocked in a select, as a
// helper parked on its wake channel is. A spinning helper reads
// runnable or running.
func spinning(stack string) bool {
	header, _, _ := strings.Cut(stack, "\n")
	return !strings.Contains(header, "[select")
}

// TestIdlePoolParks: once rounds stop, every pool helper parks in its
// wake select. A helper spins for the next round for helperSpin polls
// after each round; one whose spin never ended would burn a processor
// for as long as its network sits idle.
func TestIdlePoolParks(t *testing.T) {
	testutil.NoLeak(t)
	var nets []*Network[int]
	want := 0
	for _, workers := range []int{2, 4} {
		net := newMaxNet(graph.Cycle(supN), 1)
		net.SyncRoundParallel(workers)
		nets = append(nets, net)
		want += workers - 1
	}
	var helpers []string
	for try := 0; try < poolQuanta; try++ {
		time.Sleep(poolQuantum) // far past a spin of helperSpin yields
		helpers = poolHelpers()
		if len(helpers) == want && !slices.ContainsFunc(helpers, spinning) {
			break
		}
	}
	if len(helpers) != want {
		t.Fatalf("%d live helpers, want %d", len(helpers), want)
	}
	for _, h := range helpers {
		if spinning(h) {
			t.Errorf("an idle pool's helper is not parked in its wake select:\n\n%s", h)
		}
	}
	runtime.KeepAlive(nets)
}

// TestWakeHandoffNeverBlocks: round() offers each helper its wake token
// without waiting for a receiver. A helper that caught the last round by
// spinning left that round's token in its one-slot buffer, and it may
// catch the next round by spinning too, so nothing drains the buffer
// while the owner offers the next token: a blocking send would park the
// owner there.
func TestWakeHandoffNeverBlocks(t *testing.T) {
	testutil.NoLeak(t)
	p := &shardPool{workers: 2, wake: []chan struct{}{make(chan struct{}, wakeChanCap)}}
	// The helper caught the last round by spinning, which left that
	// round's token in its buffer, and it catches this one the same way.
	p.wake[0] <- struct{}{}
	go func() {
		for p.gen.Load() == 0 {
			runtime.Gosched()
		}
		p.share(1)
		p.busy.Add(-1)
	}()
	done := make(chan *workerPanic, 1)
	go func() { done <- p.round(func(*shardPool, int) {}) }()
	select {
	case wp := <-done:
		if wp != nil {
			t.Fatalf("round panicked: %v", wp.value)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("round() is still offering a wake token to a helper whose buffer is full")
	}
}

// TestDroppedNetworkIsCollected: a network that ran a parallel round is
// freed once its caller drops it, and its runtime cleanup stops the
// pool's workers (NoLeak). Each node's lazy source points back into the
// network, so the network sits on a cycle: a finalizer on it would pin
// it, and its workers, for good.
func TestDroppedNetworkIsCollected(t *testing.T) {
	testutil.NoLeak(t)
	net := newMaxNet(graph.Cycle(supN), 1)
	net.SyncRoundParallel(2)
	if net.pool == nil {
		t.Fatal("a multi-chunk round did not start the pool")
	}
	wp := weak.Make(net)
	net = nil
	for i := 0; i < 5 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("dropped network is still reachable after 5 GCs: its pool pins it")
	}
}

// aggParity responds to counts, not just presence: states 0/1 toggle
// every round, and states 2/3 track the parity of visible togglers.
type aggParity struct{}

func (aggParity) Step(self int, view *View[int], rnd *rand.Rand) int {
	if self < 2 {
		return 1 - self
	}
	return 2 + view.CountMod(2, func(s int) bool { return s == 1 || s == 3 })
}

// TestPoolRoundAllocs pins the pool executor's allocation contract: once
// the pool is up, a multi-chunk round allocates nothing, whatever the
// work-set size and the worker count. The pool body is a method value
// bound once per network and the round it steps is a network field, so
// no closure is made per round. An executor that spawns and joins
// goroutines every round allocates more, and more again as the worker
// count grows; this is what the persistent pool buys.
func TestPoolRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	testutil.NoLeak(t)
	for _, side := range []int{64, 256} { // n = 4096 and 65536
		c := graph.TorusCSR(side, side)
		for _, workers := range []int{2, 4, 8} {
			for _, frontier := range []bool{false, true} {
				// Every node toggles every round, so full and frontier
				// rounds alike step and change all n nodes.
				net := NewFromCSR[int](c, aggParity{}, func(v int) int { return v % 2 }, 1)
				round := func() { net.mustRound(workers, frontier) }
				round() // start the pool and grow the change buffers
				if got := testing.AllocsPerRun(10, round); got != 0 {
					t.Errorf("n=%d w=%d frontier=%v: %.1f allocs per pool round, want 0",
						c.Cap(), workers, frontier, got)
				}
			}
		}
	}
	// A BFS-style wave from node 0: each frontier is a thin band, far
	// below n. The first pass grows the bitset, the work list and every
	// chunk buffer to what each of its rounds needs; the second replays
	// the same rounds from the same states, so its steady frontier rounds
	// allocate nothing, inline (w=1) or on the pool (w=2).
	const warm, runs, far = 64, 10, 1 << 20
	c := graph.TorusCSR(256, 256)
	wave := func(v int) int {
		if v == 0 {
			return 0
		}
		return far
	}
	for _, workers := range []int{1, 2} {
		net := NewFromCSR[int](c, minPlusAutomaton{cap: far}, wave, 1)
		start := append([]int(nil), net.States()...)
		round := func() {
			if !net.mustRound(workers, true) {
				t.Fatal("the wave quiesced early")
			}
		}
		for r := 0; r < warm+runs+1; r++ { // AllocsPerRun calls round runs+1 times
			round()
		}
		if err := net.RestoreStates(start, 0); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < warm; r++ {
			round()
		}
		if got := testing.AllocsPerRun(runs, round); got != 0 {
			t.Errorf("wave on n=%d w=%d: %.1f allocs per frontier round, want 0", c.Cap(), workers, got)
		}
		if len(net.work) >= c.Cap()/16 {
			t.Errorf("wave on n=%d w=%d: work set of %d nodes is not sparse", c.Cap(), workers, len(net.work))
		}
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
