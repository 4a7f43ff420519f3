package fssga_test

// Differential suite for the round engines: every registered automaton,
// run through every engine on every topology family — with and without
// a chaos fault schedule — must produce the exact state trajectory of
// the linear-scan reference (linearReference), which steps every node
// on a fresh NewView of its neighbours and shares no palette with the
// engines it checks. A separate test checkpoints mid-run and restores
// into a fresh process image, crossing engines over the restore
// boundary.
//
// check.sh runs the package under the race detector on one and two
// cores, so the suite doubles as a concurrency check of the shard pool
// and the frontier bookkeeping.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algo/bfs"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/algo/randomwalk"
	"repro/internal/algo/shortestpath"
	"repro/internal/algo/traversal"
	"repro/internal/algo/twocolor"
	"repro/internal/checkpoint"
	"repro/internal/faults"
	"repro/internal/fssga"
	"repro/internal/graph"

	"repro/internal/testutil"
)

const (
	diffRounds = 10
	diffSeed   = 0x1234
)

// diffParity flips its bit when an odd number of neighbours hold a set
// bit: it responds to exact counts, not only to presence.
type diffParity struct{}

func (diffParity) Step(self int, view *fssga.View[int], rnd *rand.Rand) int {
	if view.CountMod(2, func(s int) bool { return s == 1 }) == 1 {
		return self ^ 1
	}
	return self
}

// diffCoin consumes exactly one draw per activation and folds in a
// cap-2 count: the probabilistic case, exercising per-step stream
// alignment across engines (and across checkpoint restore).
type diffCoin struct{}

func (diffCoin) Step(self int, view *fssga.View[int], rnd *rand.Rand) int {
	return (rnd.Intn(2) + view.CountState(1, 2)) % 2
}

// diffEngine is one way of driving a round. Engines that skip quiesced
// nodes are sound only for deterministic automata (needsDet).
type diffEngine[S comparable] struct {
	name     string
	needsDet bool
	round    func(net *fssga.Network[S])
}

func diffEngines[S comparable]() []diffEngine[S] {
	return []diffEngine[S]{
		{"serial", false, func(n *fssga.Network[S]) { n.SyncRound() }},
		{"par1", false, func(n *fssga.Network[S]) { n.SyncRoundParallel(1) }},
		{"par2", false, func(n *fssga.Network[S]) { n.SyncRoundParallel(2) }},
		{"par4", false, func(n *fssga.Network[S]) { n.SyncRoundParallel(4) }},
		{"par8", false, func(n *fssga.Network[S]) { n.SyncRoundParallel(8) }},
		{"frontier", true, func(n *fssga.Network[S]) { n.SyncRoundFrontier() }},
		{"pfrontier2", true, func(n *fssga.Network[S]) { n.SyncRoundParallelFrontier(2) }},
		{"pfrontier4", true, func(n *fssga.Network[S]) { n.SyncRoundParallelFrontier(4) }},
	}
}

// diffTopos are the topology families of the matrix: bounded degree
// (cycle, grid, torus) and heavy hubs (star, power-law). All are built
// mutable so fault schedules can shrink them.
func diffTopos() []struct {
	name string
	make func() *graph.Graph
} {
	return []struct {
		name string
		make func() *graph.Graph
	}{
		{"cycle", func() *graph.Graph { return graph.Cycle(48) }},
		{"grid", func() *graph.Graph { return graph.Grid(7, 7) }},
		{"torus", func() *graph.Graph { return graph.Torus(6, 8) }},
		{"star", func() *graph.Graph { return graph.Star(160) }},
		{"plaw", func() *graph.Graph { return graph.PLaw(96, 2, 3, 5) }},
	}
}

// diffSchedule builds the chaos schedule for one topology: random node
// and edge kills over the run, plus a guaranteed kill of the
// highest-degree node mid-run so every fault matrix entry covers hub
// death.
func diffSchedule(mk func() *graph.Graph) faults.Schedule {
	g := mk()
	rng := rand.New(rand.NewSource(0x5eed))
	sched := faults.RandomSchedule(g, diffRounds, 0.6, 0.4, rng)
	hub, best := -1, -1
	for _, v := range g.Nodes(nil) {
		if d := g.Degree(v); d > best {
			hub, best = v, d
		}
	}
	sched = append(sched, faults.NodeAt(diffRounds/2+1, hub))
	sched.Sort()
	return sched
}

func attachFaults[S comparable](net *fssga.Network[S], sched faults.Schedule) {
	if len(sched) == 0 {
		return
	}
	inj := faults.NewInjector(sched)
	net.OnBeforeRound = func(r int) { inj.Advance(net.G, r) }
}

// linearReference returns the reference trajectory of a differential:
// ref[r] is the state vector after round r of auto on g, from cand's
// initial states and seed, with sched's faults applied before each
// round as attachFaults applies them to a network. Round r steps every
// live node with a neighbour on a NewView of its neighbours' states,
// read from g, on the stream KeyedRand(StreamKey(seed, v, r-1)), the
// one a network draws from in that round.
func linearReference[S comparable](g *graph.Graph, auto fssga.Automaton[S], cand *fssga.Network[S], sched faults.Schedule, rounds int) [][]S {
	inj := faults.NewInjector(sched)
	ref := [][]S{append([]S(nil), cand.States()...)}
	for r := 1; r <= rounds; r++ {
		inj.Advance(g, r)
		prev := ref[r-1]
		next := append([]S(nil), prev...)
		for v := range prev {
			var ns []S
			for _, u := range g.SortedNeighbors(v, nil) {
				ns = append(ns, prev[u])
			}
			if len(ns) > 0 {
				rnd := fssga.KeyedRand(fssga.StreamKey(cand.Seed(), v, uint64(r-1)))
				next[v] = auto.Step(prev[v], fssga.NewView(ns), rnd)
			}
		}
		ref = append(ref, next)
	}
	return ref
}

// runDiff runs the full topology × engine × fault matrix for one
// automaton family, whose automaton is auto; det gates the frontier
// engines.
//
// Trajectories are compared per committed round: ref[r] is the
// reference state vector after round r, and after every engine call the
// candidate must match ref[net.Rounds]. Frontier engines do not commit
// quiescent rounds (and so may legitimately finish at a smaller Rounds
// than the reference — exactly the trajectory of a SyncRound loop
// guarded by Quiescent), which this indexing handles uniformly.
func runDiff[S comparable](t *testing.T, det bool, auto fssga.Automaton[S], mk func(g *graph.Graph, seed int64) *fssga.Network[S]) {
	t.Helper()
	for _, tp := range diffTopos() {
		tp := tp
		for _, withFaults := range []bool{false, true} {
			withFaults := withFaults
			name := tp.name
			if withFaults {
				name += "/faults"
			}
			t.Run(name, func(t *testing.T) {
				var sched faults.Schedule
				if withFaults {
					sched = diffSchedule(tp.make)
				}

				ref := linearReference(tp.make(), auto, mk(tp.make(), diffSeed), sched, diffRounds)

				for _, eng := range diffEngines[S]() {
					eng := eng
					if eng.needsDet && !det {
						continue
					}
					t.Run(eng.name, func(t *testing.T) {
						net := mk(tp.make(), diffSeed)
						attachFaults(net, sched)
						for i := 0; i < diffRounds; i++ {
							eng.round(net)
							want := ref[net.Rounds]
							for v, s := range net.States() {
								if s != want[v] {
									t.Fatalf("after call %d (round %d) node %d: state %v, reference %v",
										i+1, net.Rounds, v, s, want[v])
								}
							}
						}
					})
				}
			})
		}
	}
}

// TestAggDifferential is the engine differential. It keeps the name it
// had when it also held the hub aggregation trees to linear scans.
func TestAggDifferential(t *testing.T) {
	testutil.NoLeak(t)
	t.Run("twocolor", func(t *testing.T) {
		runDiff(t, true, twocolor.Auto(), func(g *graph.Graph, seed int64) *fssga.Network[twocolor.State] {
			return twocolor.NewNetwork(g, 0, seed)
		})
	})
	t.Run("shortestpath", func(t *testing.T) {
		runDiff(t, true, shortestpath.Auto(8), func(g *graph.Graph, seed int64) *fssga.Network[shortestpath.State] {
			net, err := shortestpath.NewNetwork(g, []int{0}, 8, seed)
			if err != nil {
				t.Fatal(err)
			}
			return net
		})
	})
	t.Run("bfs", func(t *testing.T) {
		runDiff(t, true, bfs.Auto(), func(g *graph.Graph, seed int64) *fssga.Network[bfs.State] {
			net, err := bfs.NewNetwork(g, 0, []int{g.Cap() - 1}, seed)
			if err != nil {
				t.Fatal(err)
			}
			return net
		})
	})
	t.Run("census-dense", func(t *testing.T) {
		runDiff(t, true, census.Auto(census.Config{Bits: 2, Sketches: 2}), func(g *graph.Graph, seed int64) *fssga.Network[census.State] {
			net, err := census.NewNetwork(g, census.Config{Bits: 2, Sketches: 2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return net
		})
	})
	// Census with the paper's sketch sizes: states far too many to
	// enumerate, of which the network numbers only those that occur.
	t.Run("census-map", func(t *testing.T) {
		runDiff(t, true, census.Auto(census.Config{Bits: 8, Sketches: 4}), func(g *graph.Graph, seed int64) *fssga.Network[census.State] {
			net, err := census.NewNetwork(g, census.Config{Bits: 8, Sketches: 4, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return net
		})
	})
	// Election, the random walk and the Milgram traversal are
	// randomized: no frontier engines.
	t.Run("election", func(t *testing.T) {
		runDiff(t, false, election.Auto(), func(g *graph.Graph, seed int64) *fssga.Network[election.State] {
			return election.New(g, seed).Net
		})
	})
	t.Run("randomwalk", func(t *testing.T) {
		runDiff(t, false, randomwalk.Auto(), func(g *graph.Graph, seed int64) *fssga.Network[randomwalk.State] {
			tr, err := randomwalk.New(g, 0, seed)
			if err != nil {
				t.Fatal(err)
			}
			return tr.Net
		})
	})
	t.Run("milgram", func(t *testing.T) {
		runDiff(t, false, traversal.MilgramAuto(), func(g *graph.Graph, seed int64) *fssga.Network[traversal.MilgramState] {
			tr, err := traversal.NewMilgram(g, 0, seed)
			if err != nil {
				t.Fatal(err)
			}
			return tr.Net
		})
	})
	t.Run("parity", func(t *testing.T) {
		runDiff(t, true, diffParity{}, func(g *graph.Graph, seed int64) *fssga.Network[int] {
			return fssga.New[int](g, diffParity{}, func(v int) int { return v % 2 }, seed)
		})
	})
	t.Run("coin", func(t *testing.T) {
		runDiff(t, false, diffCoin{}, func(g *graph.Graph, seed int64) *fssga.Network[int] {
			return fssga.New[int](g, diffCoin{}, func(v int) int { return v % 2 }, seed)
		})
	})
}

// TestAggDifferentialRestore checkpoints a parallel run mid-flight
// (faults applied) and restores into a fresh network, then finishes the
// run on a DIFFERENT engine: frontier rounds for the deterministic
// parity, serial rounds for the coin. Both halves must follow the
// trajectory of the linear-scan reference: the restored round
// counter names the same streams, the fault injector is replayed to the
// checkpoint round, and the first frontier round after a restore steps
// every node.
func TestAggDifferentialRestore(t *testing.T) {
	testutil.NoLeak(t)
	const rounds, ckptAt = 12, 6
	autos := []struct {
		name   string
		auto   fssga.Automaton[int]
		mk     func(g *graph.Graph, seed int64) *fssga.Network[int]
		finish func(net *fssga.Network[int]) // one round of the restored half
	}{
		{"parity", diffParity{}, func(g *graph.Graph, seed int64) *fssga.Network[int] {
			return fssga.New[int](g, diffParity{}, func(v int) int { return v % 2 }, seed)
		}, func(n *fssga.Network[int]) { n.SyncRoundFrontier() }},
		{"coin", diffCoin{}, func(g *graph.Graph, seed int64) *fssga.Network[int] {
			return fssga.New[int](g, diffCoin{}, func(v int) int { return v % 2 }, seed)
		}, func(n *fssga.Network[int]) { n.SyncRound() }},
	}
	topos := []struct {
		name string
		make func() *graph.Graph
	}{
		{"star", func() *graph.Graph { return graph.Star(160) }},
		{"plaw", func() *graph.Graph { return graph.PLaw(96, 2, 3, 5) }},
	}
	for _, au := range autos {
		au := au
		for _, tp := range topos {
			tp := tp
			t.Run(fmt.Sprintf("%s/%s", au.name, tp.name), func(t *testing.T) {
				// Random kills only (no forced hub death).
				g := tp.make()
				rng := rand.New(rand.NewSource(0x0ddca7))
				sched := faults.RandomSchedule(g, rounds, 0.4, 0.2, rng)

				// Reference over the full 12 rounds: ref[r] is the state
				// vector after round r.
				ref := linearReference(tp.make(), au.auto, au.mk(tp.make(), diffSeed), sched, rounds)

				// Live parallel run, checkpointed after round ckptAt.
				store := checkpoint.NewStore(checkpoint.NewMemFS(), 3)
				live := au.mk(tp.make(), diffSeed)
				attachFaults(live, sched)
				for r := 0; r < ckptAt; r++ {
					live.SyncRoundParallel(4)
				}
				mgr := checkpoint.NewManager(live, store, checkpoint.Meta{Target: "enginediff"})
				if err := mgr.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				for r := ckptAt; r < rounds; r++ {
					live.SyncRoundParallel(4)
				}
				for v, s := range live.States() {
					if s != ref[rounds][v] {
						t.Fatalf("node %d: uninterrupted %v, reference %v", v, s, ref[rounds][v])
					}
				}

				// Revived: fresh graph with the schedule replayed to the
				// checkpoint round, states and round counter restored, the
				// remaining rounds run on the other engine. A frontier
				// round that changes nothing commits nothing, so each call
				// is checked against the reference at the revived round
				// counter, as in runDiff.
				g2 := tp.make()
				inj2 := faults.NewInjector(sched)
				inj2.Advance(g2, ckptAt)
				revived := au.mk(g2, diffSeed)
				meta, err := checkpoint.NewManager(revived, store, checkpoint.Meta{}).Restore()
				if err != nil {
					t.Fatal(err)
				}
				if meta.Round != ckptAt {
					t.Fatalf("restored round %d, want %d", meta.Round, ckptAt)
				}
				revived.OnBeforeRound = func(r int) { inj2.Advance(revived.G, r) }
				for r := ckptAt; r < rounds; r++ {
					au.finish(revived)
					want := ref[revived.Rounds]
					for v, s := range revived.States() {
						if s != want[v] {
							t.Fatalf("after call %d (round %d) node %d: revived %v, reference %v",
								r-ckptAt+1, revived.Rounds, v, s, want[v])
						}
					}
				}
			})
		}
	}
}
