// Package repro's root benchmark harness: one testing.B benchmark per
// experiment table (E1–E13, see DESIGN.md's per-experiment index), plus
// the ablation benches DESIGN.md calls out (serial vs goroutine-parallel
// rounds; capped vs raw neighbourhood observation). Absolute timings are
// machine-dependent; the experiment *tables* (shape, fits, verdicts) are
// produced by cmd/fssga-bench and recorded in EXPERIMENTS.md.
package repro

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algo/bfs"
	"repro/internal/algo/bridges"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/algo/randomwalk"
	"repro/internal/algo/shortestpath"
	"repro/internal/algo/synchronizer"
	"repro/internal/algo/traversal"
	"repro/internal/algo/twocolor"
	"repro/internal/fssga"
	"repro/internal/graph"
	"repro/internal/iwa"
	"repro/internal/sensitivity"
	"repro/internal/sm"
)

// BenchmarkCensus (table E1): full OR-diffusion census on G(n, p).
func BenchmarkCensus(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	base := graph.RandomConnectedGNP(256, 0.02, rng)
	cfg := census.Config{Bits: 14, Sketches: 8, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := base.Clone()
		if _, err := census.Run(g, cfg, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBridges (table E2): random-walk bridge detection to the
// O(c·mn·log n) step budget on a barbell.
func BenchmarkBridges(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		g := graph.Barbell(10, 2)
		if res := bridges.Run(g, 0, 2, rng); len(res.Candidates) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkShortestPath (table E3): distance labels to quiescence on a
// 16x16 grid.
func BenchmarkShortestPath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := graph.Grid(16, 16)
		if _, err := shortestpath.Run(g, []int{0}, 4096, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoColor (table E4): bipartiteness verdict on an even cycle.
func BenchmarkTwoColor(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := graph.Cycle(256)
		if res := twocolor.Run(g, 0, 8192, 1); !res.Bipartite {
			b.Fatal("wrong verdict")
		}
	}
}

// BenchmarkSynchronizer (table E5): 32 fair asynchronous time units of
// the wrapped max automaton on an 8x8 grid.
func BenchmarkSynchronizer(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		g := graph.Grid(8, 8)
		net := fssga.New[synchronizer.State[int]](g,
			synchronizer.Wrapped[int]{Inner: maxAuto{}},
			synchronizer.WrapInit(func(v int) int { return v }), 1)
		tr := synchronizer.NewTracker(net)
		tr.RunUnits(32, rng)
		if !tr.SkewOK() {
			b.Fatal("skew broken")
		}
	}
}

type maxAuto struct{}

func (maxAuto) Step(self int, view *fssga.View[int], rnd *rand.Rand) int {
	best := self
	view.ForEach(func(s, _ int) {
		if s > best {
			best = s
		}
	})
	return best
}

// BenchmarkBFS (table E6): full out-and-back search on a 60-node path.
func BenchmarkBFS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := graph.Path(60)
		res, err := bfs.Run(g, 0, []int{59}, 4096, 1)
		if err != nil || !res.Found {
			b.Fatal("search failed")
		}
	}
}

// BenchmarkRandomWalkMove (table E7): one tournament hand-off at a
// degree-64 node.
func BenchmarkRandomWalkMove(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := graph.Star(65)
		tr, err := randomwalk.New(g, 0, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := tr.RunMoves(1, 100000); !ok {
			b.Fatal("no move")
		}
	}
}

// BenchmarkMilgram (table E8): full arm/hand traversal of a 6x6 grid.
func BenchmarkMilgram(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := graph.Grid(6, 6)
		tr, err := traversal.NewMilgram(g, 0, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, done := tr.Run(2000000); !done {
			b.Fatal("traversal incomplete")
		}
	}
}

// BenchmarkGreedyTourist (table E9): full greedy-tourist traversal of an
// 8x8 grid.
func BenchmarkGreedyTourist(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := graph.Grid(8, 8)
		tr, err := traversal.NewTourist(g, 0, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !tr.Run(100 * 64) {
			b.Fatal("traversal incomplete")
		}
	}
}

// BenchmarkElection (table E10): full leader election on a 16-cycle.
func BenchmarkElection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := graph.Cycle(16)
		tr := election.New(g, int64(i))
		if _, ok := tr.Run(2000000, 58); !ok {
			b.Fatal("no leader")
		}
	}
}

// BenchmarkConversions (table E11): the full Theorem 3.7 conversion cycle
// on a random counter program.
func BenchmarkConversions(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	s0 := sm.RandomCounterSequential(2, 3, 3, 2, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt, err := sm.SequentialToModThresh(s0)
		if err != nil {
			b.Fatal(err)
		}
		p, err := sm.ModThreshToParallel(mt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sm.ParallelToSequential(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIWA (table E12): one Θ(m) IWA-agent simulation of an FSSGA
// round.
func BenchmarkIWA(b *testing.B) {
	b.ReportAllocs()
	numQ := 4
	orFn := sm.BitwiseOR(2)
	fs := make([]sm.Func, numQ)
	for q := 0; q < numQ; q++ {
		fs[q] = orSelf{or: orFn, self: q}
	}
	auto, err := fssga.NewDeterministicFormal(numQ, fs)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnectedGNP(64, 0.1, rng)
	states := make([]int, g.Cap())
	for v := range states {
		states[v] = rng.Intn(numQ)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := iwa.SimulateRound(g, auto, states); err != nil {
			b.Fatal(err)
		}
	}
}

type orSelf struct {
	or   sm.Func
	self int
}

func (o orSelf) Eval(qs []int) int { return o.or.Eval(qs) | o.self }

// BenchmarkSensitivity (table E13): one fault-injected census probe run.
func BenchmarkSensitivity(b *testing.B) {
	b.ReportAllocs()
	probe := sensitivity.CensusProbe(14, 8, 2)
	row := sensitivity.Measure(probe, 1, 24, 0.08, 1)
	if row.Trials != 1 {
		b.Fatal("probe failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sensitivity.Measure(probe, 1, 24, 0.08, int64(i))
	}
}

// BenchmarkSyncRoundWorkers is ablation 2 of DESIGN.md: one synchronous
// round, serial vs goroutine-parallel, which must agree bit-for-bit while
// exposing the parallel speedup on large graphs.
//
// The election/grid32 series is the round of the end-to-end benchmark's
// election-grid workload: every one of 1,024 nodes steps every round, so
// at w = 2 a round of about 110 µs (155–185 µs at w = 1, on a 2-CPU
// Intel Xeon) carries the pool's hand-off to its helper and the barrier
// behind it, and us/round shows what they cost.
func BenchmarkSyncRoundWorkers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnectedGNP(4096, 0.002, rng)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			net := fssga.New[int](g.Clone(), maxAuto{}, func(v int) int { return v }, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.SyncRoundParallel(workers)
			}
		})
	}
	b.Run("election/grid32", func(b *testing.B) {
		for _, workers := range []int{1, 2} {
			b.Run(itoa(workers), func(b *testing.B) {
				b.ReportAllocs()
				net := election.New(graph.Grid(32, 32), 1).Net
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.SyncRoundParallel(workers)
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/round")
			})
		}
	})
}

func itoa(n int) string {
	return string(rune('0' + n))
}

// BenchmarkViewObservation is ablation 1 of DESIGN.md: the capped
// (mod-thresh) observation versus a raw full-multiset scan.
func BenchmarkViewObservation(b *testing.B) {
	states := make([]int, 1024)
	for i := range states {
		states[i] = i % 7
	}
	view := fssga.NewView(states)
	b.Run("capped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if view.Count(3, func(s int) bool { return s == 3 }) != 3 {
				b.Fatal("wrong count")
			}
		}
	})
	b.Run("raw-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			total := 0
			view.ForEach(func(s, c int) {
				if s == 3 {
					total += c
				}
			})
			if total == 0 {
				b.Fatal("wrong count")
			}
		}
	})
}

// BenchmarkSemiLattice: one synchronous round of the §5 semi-lattice
// diffusion on a large sparse graph.
func BenchmarkSemiLattice(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnectedGNP(2048, 0.004, rng)
	net := fssga.New[int](g, fssga.SemiLattice[int]{Join: fssga.MaxJoin},
		func(v int) int { return v }, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.SyncRound()
	}
}

// denseMaxAuto is maxAuto over states 0..k-1: the same diffusion step,
// named for the dense view path it ran on before every network numbered
// its states.
type denseMaxAuto struct{ k int }

func (d denseMaxAuto) Step(self int, view *fssga.View[int], rnd *rand.Rand) int {
	best := self
	view.ForEach(func(s, _ int) {
		if s > best {
			best = s
		}
	})
	return best
}

// BenchmarkViewDirectVsStepFunc isolates the view-engine cost: identical
// max-diffusion rounds on the same graph, the automaton called directly
// ("direct") and the same automaton behind a StepFunc ("stepfunc"). Both
// build views on the one palette path and must report 0 allocs/op.
func BenchmarkViewDirectVsStepFunc(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnectedGNP(2048, 0.004, rng)
	const k = 16
	init := func(v int) int { return v % k }
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		net := fssga.New[int](g.Clone(), denseMaxAuto{k}, init, 1)
		net.SyncRound()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.SyncRound()
		}
	})
	b.Run("stepfunc", func(b *testing.B) {
		b.ReportAllocs()
		net := fssga.New[int](g.Clone(), fssga.StepFunc[int](denseMaxAuto{k}.Step), init, 1)
		net.SyncRound()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.SyncRound()
		}
	})
}

// BenchmarkSyncRoundFrontier times frontier rounds two ways.
//   - frontier and full re-probe a quiesced diffusion: the frontier round
//     finds the change list empty, so nothing marked, and returns at
//     once, versus a full view rebuild per node.
//   - wave/... solve a wave to quiescence from its initial states with
//     frontier rounds, at one and two workers, as the end-to-end
//     shortest-path and BFS workloads do, at a smaller n. Each solve
//     starts from RestoreStates, so its first round steps every node;
//     every later round steps what the workers of the round before it
//     marked. ns/node is the solve's time over the node count.
func BenchmarkSyncRoundFrontier(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnectedGNP(2048, 0.004, rng)
	const k = 16
	init := func(v int) int { return v % k }
	b.Run("frontier", func(b *testing.B) {
		b.ReportAllocs()
		net := fssga.New[int](g.Clone(), denseMaxAuto{k}, init, 1)
		net.RunSyncUntilQuiescent(1 << 14)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.SyncRoundFrontier()
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		net := fssga.New[int](g.Clone(), denseMaxAuto{k}, init, 1)
		net.RunSyncUntilQuiescent(1 << 14)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.SyncRound()
		}
	})

	const block, spCap = 16384, 127
	plaw := graph.PLawCSR(block, 8, 4, 1)
	benchWave(b, "wave/shortestpath/plaw", fssga.NewFromCSR(plaw, shortestpath.Auto(spCap),
		func(v int) shortestpath.State {
			if v%block == 0 { // one target per block copy
				return shortestpath.State{InT: true}
			}
			return shortestpath.State{Label: spCap}
		}, 1))

	const side = 512
	target := side/2*side + side/2 // node 0's antipode
	benchWave(b, "wave/bfs/torus", fssga.NewFromCSR(graph.TorusCSR(side, side), bfs.Auto(),
		func(v int) bfs.State {
			return bfs.State{Originator: v == 0, Target: v == target, Label: bfs.NoLabel, Status: bfs.Waiting}
		}, 1))
}

// benchWave runs the name/w=1 and name/w=2 sub-benchmarks: each solves
// net to quiescence from its initial states with frontier rounds, and
// reports the solve's ns per node.
func benchWave[S comparable](b *testing.B, name string, net *fssga.Network[S]) {
	start := slices.Clone(net.States())
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("%s/w=%d", name, w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := net.RestoreStates(start, 0); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for net.SyncRoundParallelFrontier(w) {
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(start)), "ns/node")
		})
	}
}
