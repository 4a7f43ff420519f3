package fssga

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/graph"

	"repro/internal/testutil"
)

// drawPair is a randomized automaton whose successor state is two draws
// of its step's stream, through two different rand.Rand methods.
type drawPair struct{}

func (drawPair) Step(self [2]uint64, view *View[[2]uint64], rnd *rand.Rand) [2]uint64 {
	return [2]uint64{rnd.Uint64(), uint64(rnd.Intn(1 << 20))}
}

// wantDraws is what drawPair computes for node v at the given epoch,
// drawn from the stream that StreamKey names.
func wantDraws(seed int64, v int, epoch uint64) [2]uint64 {
	r := KeyedRand(StreamKey(seed, v, epoch))
	return [2]uint64{r.Uint64(), uint64(r.Intn(1 << 20))}
}

// TestKeyedStreamsMatchStreamKey: every step draws from
// KeyedRand(StreamKey(seed, v, Rounds+Activations)), whichever engine
// runs it and whichever worker claims its chunk.
func TestKeyedStreamsMatchStreamKey(t *testing.T) {
	testutil.NoLeak(t)
	const seed = -42
	engines := map[string]func(net *Network[[2]uint64]){
		"serial":     func(net *Network[[2]uint64]) { net.SyncRound() },
		"parallel-2": func(net *Network[[2]uint64]) { net.SyncRoundParallel(2) },
		"parallel-4": func(net *Network[[2]uint64]) { net.SyncRoundParallel(4) },
	}
	for name, round := range engines {
		net := New[[2]uint64](graph.Torus(16, 20), drawPair{}, func(int) [2]uint64 { return [2]uint64{} }, seed)
		for r := 0; r < 3; r++ {
			epoch := net.epoch()
			round(net)
			for v, s := range net.States() {
				if want := wantDraws(seed, v, epoch); s != want {
					t.Fatalf("%s: round %d node %d drew %v, want %v", name, r+1, v, s, want)
				}
			}
		}
	}

	// Activations advance the epoch one by one, between rounds too.
	net := New[[2]uint64](graph.Cycle(9), drawPair{}, func(int) [2]uint64 { return [2]uint64{} }, seed)
	net.SyncRound()
	for i, v := range []int{4, 4, 0, 8} {
		net.Activate(v)
		if want := wantDraws(seed, v, uint64(1+i)); net.State(v) != want {
			t.Fatalf("activation %d of node %d drew %v, want %v", i, v, net.State(v), want)
		}
	}
	if net.epoch() != 5 {
		t.Fatalf("epoch after 1 round and 4 activations = %d, want 5", net.epoch())
	}
}

// TestStreamQuality is a smoke test of the keyed streams as automata use
// them: a few draws per (node, epoch), read across nodes and epochs. It
// checks the byte distribution of first draws by chi-square and the
// lag-1 correlation of draws and of coins across adjacent nodes and
// adjacent epochs. The inputs are fixed, so the test is deterministic;
// the bounds sit about four standard deviations out.
func TestStreamQuality(t *testing.T) {
	const seed = 20060730
	r := KeyedRand(0)
	at := func(v int, e uint64) *rand.Rand {
		r.Seed(int64(StreamKey(seed, v, e)))
		return r
	}

	// Chi-square over the bytes of the first two draws of 4096 nodes ×
	// 8 epochs: 255 degrees of freedom, mean 255, sd 22.6.
	var hist [256]int
	bytes := 0
	for v := 0; v < 4096; v++ {
		for e := uint64(0); e < 8; e++ {
			s := at(v, e)
			for d := 0; d < 2; d++ {
				x := s.Uint64()
				for b := 0; b < 8; b++ {
					hist[byte(x>>(8*b))]++
					bytes++
				}
			}
		}
	}
	want := float64(bytes) / 256
	chi := 0.0
	for _, c := range hist {
		chi += (float64(c) - want) * (float64(c) - want) / want
	}
	if chi > 350 {
		t.Errorf("byte chi-square %.1f over 255 degrees of freedom, want <= 350", chi)
	}

	// Lag-1 correlation across adjacent nodes (epoch fixed) and adjacent
	// epochs (node fixed), of the first draw as a uniform and of the
	// first coin flip, the draw most automata make.
	const n = 1 << 16
	bound := 4 / math.Sqrt(n)
	for _, axis := range []struct {
		name string
		at   func(i int) *rand.Rand
	}{
		{"adjacent nodes", func(i int) *rand.Rand { return at(i, 3) }},
		{"adjacent epochs", func(i int) *rand.Rand { return at(5, uint64(i)) }},
	} {
		unif := make([]float64, n)
		coin := make([]float64, n)
		for i := range unif {
			unif[i] = axis.at(i).Float64()
			coin[i] = float64(axis.at(i).Intn(2))
		}
		for _, series := range []struct {
			name string
			xs   []float64
		}{{"uniform", unif}, {"coin", coin}} {
			if c := lag1(series.xs); math.Abs(c) > bound {
				t.Errorf("%s: lag-1 correlation of the %s draws is %.4f, want |c| <= %.4f", axis.name, series.name, c, bound)
			}
		}
	}
}

// lag1 returns the Pearson correlation of xs[i] and xs[i+1].
func lag1(xs []float64) float64 {
	a, b := xs[:len(xs)-1], xs[1:]
	mean := func(s []float64) float64 {
		m := 0.0
		for _, x := range s {
			m += x
		}
		return m / float64(len(s))
	}
	ma, mb := mean(a), mean(b)
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	return sab / math.Sqrt(saa*sbb)
}

// rareFlip is a randomized automaton that often leaves every state alone
// for a round: a 0 becomes 1 with probability 1/16, a 1 becomes 0 with
// probability 1/16.
type rareFlip struct{}

func (rareFlip) Step(self int, view *View[int], rnd *rand.Rand) int {
	if rnd.Intn(16) == 0 {
		return 1 - self
	}
	return self
}

// TestQuiescentExactForRandomized: Quiescent steps every node with the
// streams of the next round, so it predicts exactly whether that round
// changes a state, and probing draws nothing from the run.
func TestQuiescentExactForRandomized(t *testing.T) {
	testutil.NoLeak(t)
	net := New[int](graph.Cycle(3), rareFlip{}, func(int) int { return 0 }, 8)
	twin := New[int](graph.Cycle(3), rareFlip{}, func(int) int { return 0 }, 8)
	quiet := 0
	for r := 0; r < 200; r++ {
		q := net.Quiescent()
		before := append([]int(nil), net.States()...)
		net.SyncRound()
		twin.SyncRound()
		if changed := !reflect.DeepEqual(before, net.States()); q == changed {
			t.Fatalf("round %d: Quiescent() = %v, but the round changed a state: %v", r+1, q, changed)
		}
		if !reflect.DeepEqual(net.States(), twin.States()) {
			t.Fatalf("round %d: probing changed the run", r+1)
		}
		if q {
			quiet++
		}
	}
	if quiet == 0 || quiet == 200 {
		t.Fatalf("%d of 200 rounds were quiescent; the test needs both kinds", quiet)
	}
}

// readCoin draws through rand.Rand.Read, which buffers the 4 bytes of
// its 7-byte draw that a 3-byte read leaves over, and panics after the
// draw while its budget lasts.
type readCoin struct{ budget *atomic.Int64 }

func (p readCoin) Step(self int, view *View[int], rnd *rand.Rand) int {
	var b [3]byte
	rnd.Read(b[:])
	s := (int(b[0]^b[2])&1 + view.CountMod(2, func(q int) bool { return q == 1 })) % 2
	if p.budget.Add(-1) >= 0 {
		panic("injected worker panic after a buffered read")
	}
	return s
}

// TestRetriedRoundRedrawsItsStreams: a randomized round at w=2 whose
// workers panic after drawing is retried on the same epoch, and commits
// exactly the states of a run with no panic. No step sees bytes that
// another step left in the Read buffer.
func TestRetriedRoundRedrawsItsStreams(t *testing.T) {
	testutil.NoLeak(t)
	var budget, never atomic.Int64
	never.Store(-1 << 40)
	g := graph.Cycle(supN)
	init := func(v int) int { return v % 2 }
	net := New[int](g.Clone(), readCoin{&budget}, init, 31)
	ref := New[int](g.Clone(), readCoin{&never}, init, 31)
	for r := 0; r < 8; r++ {
		budget.Store(-1)
		if r%3 == 1 {
			budget.Store(5) // five steps draw and then panic
		}
		net.SyncRoundParallel(2)
		ref.SyncRound()
		if !reflect.DeepEqual(net.States(), ref.States()) {
			t.Fatalf("round %d: the retried round committed different states", r+1)
		}
	}
	if net.Rounds != 8 {
		t.Fatalf("Rounds = %d, want 8", net.Rounds)
	}
}

// liveHeap returns the bytes of live heap objects after a full GC.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestDeterministicHeapIsStates: at n = 2^20 a deterministic network
// built over a CSR costs its state vector plus its 4-byte palette id
// per node plus O(1), through a full round: no node carries a stream.
// The subtests keep the names of the two view paths there were.
func TestDeterministicHeapIsStates(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are perturbed under -race")
	}
	c := graph.TorusCSR(1024, 1024)
	for _, tc := range []struct {
		name string
		auto Automaton[int]
		id   uint64 // bytes per node beside its state
	}{
		{"map", maxAutomaton{}, 4},
		{"dense", denseMax{8}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := liveHeap()
			net := NewFromCSR[int](c, tc.auto, func(int) int { return 7 }, 1)
			net.SyncRound() // every node steps; none changes
			grown := liveHeap() - base
			want := uint64(c.Cap()) * (uint64(unsafe.Sizeof(int(0))) + tc.id)
			if grown > want+64<<10 {
				t.Fatalf("network heap %d B, want its %d B of states and ids plus at most 64 KiB", grown, want)
			}
			runtime.KeepAlive(net)
		})
	}
}

// TestRandomizedHeapFlat: a randomized network's heap does not grow
// with its draws. Past the change buffers, which reach their largest
// size once, rounds that draw at every node allocate nothing that
// stays live.
func TestRandomizedHeapFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are perturbed under -race")
	}
	net := NewFromCSR[int](graph.TorusCSR(128, 128), denseCoin{}, func(v int) int { return v % 2 }, 3)
	base := liveHeap()
	for r := 0; r < 40; r++ {
		net.SyncRound()
	}
	var buffers uint64
	for _, buf := range net.changes[:cap(net.changes)] {
		buffers += uint64(cap(buf)) * uint64(unsafe.Sizeof(change[int]{}))
	}
	if grown := liveHeap() - base; grown > buffers+64<<10 {
		t.Fatalf("40 randomized rounds grew the heap by %d B, want at most the %d B of change buffers plus 64 KiB", grown, buffers)
	}
	runtime.KeepAlive(net)
}

// TestViewScratchPad: pool workers write their view scratches on every
// step, so at least one cache line of bytes that no step writes must
// follow the last field of a scratch. Every named field counts as
// written.
func TestViewScratchPad(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(viewScratch[int]{}),
		reflect.TypeOf(viewScratch[[2]uint64]{}),
	} {
		end := uintptr(0)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Name != "_" {
				end = max(end, f.Offset+f.Type.Size())
			}
		}
		if pad := typ.Size() - end; pad < 64 {
			t.Errorf("%v: %d unwritten bytes follow the last field, want at least 64", typ, pad)
		}
	}
}
