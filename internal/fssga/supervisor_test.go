package fssga

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"

	"repro/internal/testutil"
)

// panicMax is maxAutomaton with an injectable panic budget: while the
// budget is positive, every Step decrements it and panics. Deterministic
// otherwise, so retried rounds are trivially replayable.
type panicMax struct{ budget *atomic.Int64 }

func (p panicMax) Step(self int, view *View[int], rnd *rand.Rand) int {
	if p.budget.Add(-1) >= 0 {
		panic("injected worker panic")
	}
	return maxAutomaton{}.Step(self, view, rnd)
}

// panicCoin is coinAutomaton with the same injectable budget, but it
// consumes its random draw BEFORE panicking: the retried round must
// draw the same bits again or it diverges from an uninterrupted run.
type panicCoin struct{ budget *atomic.Int64 }

func (p panicCoin) Step(self int, view *View[int], rnd *rand.Rand) int {
	s := (rnd.Intn(2) + view.CountMod(2, func(q int) bool { return q == 1 })) % 2
	if p.budget.Add(-1) >= 0 {
		panic("injected worker panic after draw")
	}
	return s
}

const supN = 4 * shardAlign // big enough for a real multi-shard parallel round

// TestSupervisedRecoversTransientPanic: one injected worker panic is
// absorbed — the round retries and the run's trajectory is bit-identical
// to an uninterrupted serial run.
func TestSupervisedRecoversTransientPanic(t *testing.T) {
	testutil.NoLeak(t)
	var budget atomic.Int64
	budget.Store(-1) // disarmed
	g := graph.Cycle(supN)
	net := New[int](g.Clone(), panicMax{&budget}, func(v int) int { return v }, 1)
	ref := newMaxNet(g.Clone(), 1)

	for r := 0; r < 6; r++ {
		if r == 3 {
			budget.Store(1) // next round: exactly one Step panics
		}
		net.SyncRoundParallel(4)
		ref.SyncRound()
		if !reflect.DeepEqual(net.States(), ref.States()) {
			t.Fatalf("round %d diverged after supervised retry", r+1)
		}
	}
	if net.Rounds != 6 {
		t.Fatalf("Rounds = %d, want 6", net.Rounds)
	}
}

// TestSupervisedRewindsRNGOnRetry: a panic after the stream draw must
// not shift any stream — the retried round and every round after it
// must match an uninterrupted probabilistic run exactly.
func TestSupervisedRewindsRNGOnRetry(t *testing.T) {
	testutil.NoLeak(t)
	var budget, refBudget atomic.Int64
	budget.Store(-1)
	refBudget.Store(-1 << 40) // reference never panics
	g := graph.Cycle(supN)
	init := func(v int) int { return v % 2 }
	net := New[int](g.Clone(), panicCoin{&budget}, init, 77)
	ref := New[int](g.Clone(), panicCoin{&refBudget}, init, 77)

	for r := 0; r < 8; r++ {
		if r == 2 || r == 5 {
			budget.Store(3) // a few Steps draw-then-panic this round
		} else {
			budget.Store(-1)
		}
		net.SyncRoundParallel(4)
		ref.SyncRound()
		if !reflect.DeepEqual(net.States(), ref.States()) {
			t.Fatalf("round %d diverged: the retry drew different bits", r+1)
		}
	}
}

// TestSupervisedFrontierRecoversPanic: the frontier engine gets the
// same supervision; a transient panic mid-frontier-round retries and
// converges identically to the serial frontier run. The failed attempt's
// marks stay: the retry finds every change that attempt found, so every
// round after the first, the retried one's successor included, steps
// exactly the closed neighbourhood of the last committed change list.
func TestSupervisedFrontierRecoversPanic(t *testing.T) {
	testutil.NoLeak(t)
	var budget atomic.Int64
	budget.Store(-1)
	g := graph.Grid(16, 16)
	net := New[int](g.Clone(), panicMax{&budget}, func(v int) int { return v }, 1)
	ref := newMaxNet(g.Clone(), 1)

	for r := 0; ; r++ {
		if r == 2 {
			budget.Store(2)
		}
		want := closedNeighbourhood(net.topo(), changeList(net))
		changed, err := net.round(4, true)
		if r > 0 && !slices.Equal(net.work, want) {
			t.Fatalf("round %d stepped %v, want the closed neighbourhood %v", r+1, net.work, want)
		}
		if err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		refChanged := ref.SyncRoundFrontier()
		if changed != refChanged {
			t.Fatalf("round %d: changed=%v, serial=%v", r+1, changed, refChanged)
		}
		if !reflect.DeepEqual(net.States(), ref.States()) {
			t.Fatalf("round %d diverged", r+1)
		}
		if !changed {
			break
		}
	}
}

// panicShare is panicMax that also counts, per injected panic, whether
// a pool helper or the round owner raised it.
type panicShare struct {
	budget            *atomic.Int64
	onOwner, onHelper *atomic.Int64
}

func (p panicShare) Step(self int, view *View[int], rnd *rand.Rand) int {
	if p.budget.Add(-1) >= 0 {
		if strings.Contains(string(debug.Stack()), "fssga.(*shardPool).help(") {
			p.onHelper.Add(1)
		} else {
			p.onOwner.Add(1)
		}
		panic("injected worker panic")
	}
	return maxAutomaton{}.Step(self, view, rnd)
}

// TestSupervisedOwnerAndHelperPanic: at w = 2 the round owner steps its
// share as worker 0 beside one helper. A share stops at its first panic,
// so a budget of two panics makes the owner's share and the helper's
// share both panic in the same attempt. The retry must still reach the
// serial reference states, and the helper must survive to serve the
// rounds after it.
func TestSupervisedOwnerAndHelperPanic(t *testing.T) {
	testutil.NoLeak(t)
	var budget, onOwner, onHelper atomic.Int64
	budget.Store(-1) // disarmed
	g := graph.Cycle(supN)
	net := New[int](g.Clone(), panicShare{&budget, &onOwner, &onHelper}, func(v int) int { return v }, 1)
	ref := newMaxNet(g.Clone(), 1)

	for r := 0; r < 6; r++ {
		if r == 2 {
			budget.Store(2) // next round: the first two Steps panic
		}
		net.SyncRoundParallel(2)
		ref.SyncRound()
		if !reflect.DeepEqual(net.States(), ref.States()) {
			t.Fatalf("round %d diverged after supervised retry", r+1)
		}
	}
	if net.Rounds != 6 {
		t.Fatalf("Rounds = %d, want 6", net.Rounds)
	}
	if onOwner.Load() != 1 || onHelper.Load() != 1 {
		t.Fatalf("panics: %d on the owner, %d on the helper; want 1 and 1", onOwner.Load(), onHelper.Load())
	}
}

// TestSupervisedExhaustionStructuredError: a persistent panic surfaces
// as *PanicError after maxRoundAttempts, with the network left exactly
// on its committed pre-round state — counter and states.
func TestSupervisedExhaustionStructuredError(t *testing.T) {
	testutil.NoLeak(t)
	var budget atomic.Int64
	budget.Store(1 << 40) // every attempt panics
	net := New[int](graph.Cycle(supN), panicCoin{&budget}, func(v int) int { return v % 2 }, 9)
	before := append([]int(nil), net.States()...)

	err := net.TrySyncRoundParallel(4)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Round != 1 || pe.Attempts != maxRoundAttempts || pe.Worker < 0 || pe.Worker >= 4 {
		t.Fatalf("PanicError = %+v", pe)
	}
	if pe.Stack == "" || pe.Value == nil {
		t.Fatal("PanicError missing stack or value")
	}
	if net.Rounds != 0 {
		t.Fatalf("failed round committed: Rounds = %d", net.Rounds)
	}
	if !reflect.DeepEqual(net.States(), before) {
		t.Fatal("failed round mutated states")
	}

	// The non-Try wrapper propagates the same structured error as a
	// panic — a crash with context, never a stuck pool.
	func() {
		defer func() {
			if _, ok := recover().(*PanicError); !ok {
				t.Error("SyncRoundParallel should panic with *PanicError")
			}
		}()
		net.SyncRoundParallel(4)
	}()

	// The pool survives exhaustion: disarm and the next round works.
	budget.Store(-1)
	net.SyncRoundParallel(4)
	if net.Rounds != 1 {
		t.Fatalf("pool dead after exhaustion: Rounds = %d", net.Rounds)
	}
}

// TestSupervisedOneChunkRounds: a round whose work set fits one chunk
// is stepped inline on the round owner and wakes no pool, yet it is
// supervised like a pool round. A transient Step panic is retried to the
// serial reference, and a persistent one surfaces as the owner's
// *PanicError, never as the raw panic value: for a full round on at
// most 64 nodes and for a one-chunk frontier at two workers, and for
// every round at one worker, whose work set is always one chunk.
func TestSupervisedOneChunkRounds(t *testing.T) {
	testutil.NoLeak(t)
	// exhaust arms a persistent panic for one round at the given worker
	// count and checks that it fails as worker 0's *PanicError after
	// every attempt, leaving the network on its committed round.
	exhaust := func(t *testing.T, net *Network[int], budget *atomic.Int64, workers int, frontier bool) {
		t.Helper()
		budget.Store(1 << 40)
		defer budget.Store(-1)
		rounds, before := net.Rounds, append([]int(nil), net.States()...)
		_, err := net.round(workers, frontier)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("want *PanicError, got %v", err)
		}
		if pe.Round != rounds+1 || pe.Worker != 0 || pe.Attempts != maxRoundAttempts || pe.Value == nil || pe.Stack == "" {
			t.Fatalf("PanicError = %+v", pe)
		}
		if net.Rounds != rounds || !reflect.DeepEqual(net.States(), before) {
			t.Fatal("failed round committed")
		}
	}

	t.Run("full round", func(t *testing.T) {
		var budget atomic.Int64
		budget.Store(-1)
		g := graph.Cycle(shardAlign / 2)
		net := New[int](g.Clone(), panicMax{&budget}, func(v int) int { return v }, 1)
		ref := newMaxNet(g.Clone(), 1)
		budget.Store(1) // one Step panics
		net.SyncRoundParallel(2)
		ref.SyncRound()
		if !reflect.DeepEqual(net.States(), ref.States()) || net.Rounds != 1 {
			t.Fatal("retried one-chunk round diverged from the serial round")
		}
		exhaust(t, net, &budget, 2, false)
		// The panicking entry point re-panics with the structured error.
		budget.Store(1 << 40)
		func() {
			defer func() {
				if _, ok := recover().(*PanicError); !ok {
					t.Error("SyncRoundParallel should panic with *PanicError")
				}
			}()
			net.SyncRoundParallel(2)
		}()
		if net.pool != nil {
			t.Error("a one-chunk round started the shard pool")
		}
	})

	t.Run("frontier", func(t *testing.T) {
		var budget atomic.Int64
		budget.Store(-1)
		g := graph.Cycle(supN)
		init := func(v int) int { return 1 / (v + 1) } // 1 at node 0, else 0
		net := New[int](g.Clone(), panicMax{&budget}, init, 1)
		ref := New[int](g.Clone(), maxAutomaton{}, init, 1)
		// A serial first round steps every node and leaves two changed
		// nodes, so every frontier after it is a handful of nodes: one
		// chunk.
		net.SyncRoundFrontier()
		ref.SyncRoundFrontier()
		for r := 1; r <= 4; r++ {
			if r == 3 {
				budget.Store(1)
			}
			if !net.SyncRoundParallelFrontier(2) || !ref.SyncRoundFrontier() || !reflect.DeepEqual(net.States(), ref.States()) {
				t.Fatalf("frontier round %d diverged from the serial frontier", r)
			}
		}
		if net.pool != nil {
			t.Error("a one-chunk frontier started the shard pool")
		}
		exhaust(t, net, &budget, 2, true)
	})

	t.Run("one worker", func(t *testing.T) {
		var budget atomic.Int64
		budget.Store(-1)
		g := graph.Cycle(supN)
		net := New[int](g.Clone(), panicMax{&budget}, func(v int) int { return v }, 1)
		ref := newMaxNet(g.Clone(), 1)
		budget.Store(1) // one Step panics
		net.SyncRound()
		ref.SyncRound()
		if !reflect.DeepEqual(net.States(), ref.States()) || net.Rounds != 1 {
			t.Fatal("retried one-worker round diverged from the serial round")
		}
		exhaust(t, net, &budget, 1, false)
		exhaust(t, net, &budget, 1, true)
		budget.Store(1 << 40)
		var pe *PanicError
		if err := net.TrySyncRoundParallel(1); !errors.As(err, &pe) || pe.Worker != 0 {
			t.Fatalf("TrySyncRoundParallel(1) = %v, want worker 0's *PanicError", err)
		}
		// The panicking entry points re-panic with the structured error.
		for _, round := range []func(){net.SyncRound, func() { net.SyncRoundFrontier() }} {
			func() {
				defer func() {
					if _, ok := recover().(*PanicError); !ok {
						t.Error("a one-worker round should panic with *PanicError")
					}
				}()
				round()
			}()
		}
		budget.Store(-1)
		if net.pool != nil {
			t.Error("a one-worker round started the shard pool")
		}
	})
}

// TestConcurrentRoundsGetDefinedError: overlapping rounds on one
// network return ErrConcurrentRound instead of racing on the double
// buffer; exactly the successful calls commit.
func TestConcurrentRoundsGetDefinedError(t *testing.T) {
	testutil.NoLeak(t)
	net := newMaxNet(graph.Cycle(supN), 1)

	const callers, perCaller = 4, 25
	var wg sync.WaitGroup
	var ok, rejected atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perCaller; j++ {
				switch err := net.TrySyncRoundParallel(2); {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrConcurrentRound):
					rejected.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if got := ok.Load() + rejected.Load(); got != callers*perCaller {
		t.Fatalf("accounted %d of %d calls", got, callers*perCaller)
	}
	if int64(net.Rounds) != ok.Load() {
		t.Fatalf("Rounds = %d, successful calls = %d", net.Rounds, ok.Load())
	}
}
