package fssga

import (
	"errors"
	"math/rand"
	"reflect"
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
// consumes its random draw BEFORE panicking — the worst case for the
// supervisor, which must rewind the half-consumed streams or the
// retried round diverges from an uninterrupted run.
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
	defer net.Close()
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
// not advance the node's RNG twice — the retried round and every round
// after it must match an uninterrupted probabilistic run exactly.
func TestSupervisedRewindsRNGOnRetry(t *testing.T) {
	testutil.NoLeak(t)
	var budget, refBudget atomic.Int64
	budget.Store(-1)
	refBudget.Store(-1 << 40) // reference never panics
	g := graph.Cycle(supN)
	init := func(v int) int { return v % 2 }
	net := New[int](g.Clone(), panicCoin{&budget}, init, 77)
	defer net.Close()
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
			t.Fatalf("round %d diverged: RNG not rewound on retry", r+1)
		}
	}
}

// TestSupervisedFrontierRecoversPanic: the frontier engine gets the
// same supervision; a transient panic mid-frontier-round retries and
// converges identically to the serial frontier run.
func TestSupervisedFrontierRecoversPanic(t *testing.T) {
	testutil.NoLeak(t)
	var budget atomic.Int64
	budget.Store(-1)
	g := graph.Grid(16, 16)
	net := New[int](g.Clone(), panicMax{&budget}, func(v int) int { return v }, 1)
	defer net.Close()
	ref := newMaxNet(g.Clone(), 1)

	for r := 0; ; r++ {
		if r == 2 {
			budget.Store(2)
		}
		changed, err := net.round(4, true)
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

// TestSupervisedExhaustionStructuredError: a persistent panic surfaces
// as *PanicError after maxRoundAttempts, with the network left exactly
// on its committed pre-round state — counter, states and RNG positions.
func TestSupervisedExhaustionStructuredError(t *testing.T) {
	testutil.NoLeak(t)
	var budget atomic.Int64
	budget.Store(1 << 40) // every attempt panics
	net := New[int](graph.Cycle(supN), panicCoin{&budget}, func(v int) int { return v % 2 }, 9)
	defer net.Close()
	before := append([]int(nil), net.States()...)

	err := net.TrySyncRoundParallel(4)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Round != 1 || pe.Attempts != maxRoundAttempts {
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
	for v, p := range net.RNGPositions() {
		if p != 0 {
			t.Fatalf("node %d stream not rewound: position %d", v, p)
		}
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

// TestConcurrentRoundsGetDefinedError: overlapping rounds on one
// network return ErrConcurrentRound instead of racing on the double
// buffer; exactly the successful calls commit.
func TestConcurrentRoundsGetDefinedError(t *testing.T) {
	testutil.NoLeak(t)
	net := newMaxNet(graph.Cycle(supN), 1)
	defer net.Close()

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

// TestCloseRacingRoundsDefined: Close storms concurrent with rounds
// never corrupt a round — every call either commits (transparent pool
// restart) or reports a pool-closed error, and the committed trajectory
// matches a serial run of the same length.
func TestCloseRacingRoundsDefined(t *testing.T) {
	testutil.NoLeak(t)
	g := graph.Cycle(supN)
	net := newMaxNet(g.Clone(), 1)
	defer net.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				net.Close()
			}
		}
	}()

	committed := 0
	for i := 0; i < 40; i++ {
		switch err := net.TrySyncRoundParallel(2); {
		case err == nil:
			committed++
		case errors.Is(err, ErrPoolClosed):
			// Close won the race on every attempt: defined, no commit.
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	if committed != net.Rounds {
		t.Fatalf("Rounds = %d, committed = %d", net.Rounds, committed)
	}
	ref := newMaxNet(g.Clone(), 1)
	for i := 0; i < committed; i++ {
		ref.SyncRound()
	}
	if !reflect.DeepEqual(net.States(), ref.States()) {
		t.Fatal("close-racing rounds diverged from serial trajectory")
	}
}
