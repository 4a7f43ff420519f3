package fssga_test

// Differential suite for the divide-and-conquer view aggregation
// (agg.go): every registered automaton, run through every engine on
// every topology family — with and without a chaos fault schedule —
// must produce the exact state trajectory of the naive linear-scan
// reference. The reference run disables aggregation by raising the
// degree cutoff beyond any degree; the candidate runs lower it to 3 so
// even grid/torus interiors ride the segment trees. A separate test
// checkpoints mid-run and restores into a fresh process image, crossing
// engines over the restore boundary.
//
// check.sh runs this suite under the race detector (-run
// TestAggDifferential), so it doubles as the concurrency proof for the
// shared composition tables and per-shard tree ownership.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algo/bfs"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/algo/shortestpath"
	"repro/internal/algo/twocolor"
	"repro/internal/checkpoint"
	"repro/internal/faults"
	"repro/internal/fssga"
	"repro/internal/graph"

	"repro/internal/testutil"
)

const (
	diffRounds = 10
	diffCutoff = 3
	diffSeed   = 0x1234
)

// diffParity flips its bit when an odd number of neighbours hold a set
// bit — the purely periodic (t=0, m=2) footprint, the one automaton
// family a presence-only saturation would break.
type diffParity struct{}

func (diffParity) NumStates() int                  { return 2 }
func (diffParity) StateIndex(s int) int            { return s }
func (diffParity) SaturationFootprint() (int, int) { return 0, 2 }
func (diffParity) Step(self int, view *fssga.View[int], rnd *rand.Rand) int {
	if view.CountMod(2, func(s int) bool { return s == 1 }) == 1 {
		return self ^ 1
	}
	return self
}

// diffCoin consumes exactly one draw per activation and folds in a
// cap-2 count: the probabilistic case, exercising per-step stream
// alignment through hub views (and across checkpoint restore).
type diffCoin struct{}

func (diffCoin) NumStates() int                  { return 2 }
func (diffCoin) StateIndex(s int) int            { return s }
func (diffCoin) SaturationFootprint() (int, int) { return 2, 1 }
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

// diffTopos are the topology families of the matrix. Cycle has no node
// at the cutoff (pure seam passthrough); grid/torus make most nodes
// hubs; star and power-law are the heavy-hub cases the subsystem is
// for. All are built mutable so fault schedules can shrink them.
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

// runDiff runs the full topology × engine × fault matrix for one
// automaton family. wantAgg states whether aggregation must engage on
// hub-bearing topologies (false for automata without a usable
// footprint, which must silently keep the linear path); det gates the
// frontier engines.
//
// Trajectories are compared per committed round: ref[r] is the
// reference state vector after round r, and after every engine call the
// candidate must match ref[net.Rounds]. Frontier engines do not commit
// quiescent rounds (and so may legitimately finish at a smaller Rounds
// than the reference — exactly the trajectory of a SyncRound loop
// guarded by Quiescent), which this indexing handles uniformly.
func runDiff[S comparable](t *testing.T, wantAgg, det bool, mk func(g *graph.Graph, seed int64) *fssga.Network[S]) {
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

				ref := make([][]S, diffRounds+1)
				refNet := mk(tp.make(), diffSeed)
				refNet.SetAggDegreeCutoff(1 << 30)
				attachFaults(refNet, sched)
				ref[0] = append([]S(nil), refNet.States()...)
				for r := 1; r <= diffRounds; r++ {
					refNet.SyncRound()
					ref[r] = append([]S(nil), refNet.States()...)
				}
				if st := refNet.AggStats(); st.HubViews != 0 {
					t.Fatalf("reference run served %d hub views, want pure linear scans", st.HubViews)
				}

				hubby := tp.make().CSR().MaxDegree() >= diffCutoff
				for _, eng := range diffEngines[S]() {
					eng := eng
					if eng.needsDet && !det {
						continue
					}
					t.Run(eng.name, func(t *testing.T) {
						net := mk(tp.make(), diffSeed)
						net.SetAggDegreeCutoff(diffCutoff)
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
						st := net.AggStats()
						if wantAgg && hubby && st.HubViews == 0 {
							t.Fatalf("aggregation never engaged (stats %+v) on a topology with max degree >= %d", st, diffCutoff)
						}
						if !wantAgg && st.Hubs != 0 {
							t.Fatalf("aggregation engaged (%d hubs) for an automaton without a usable footprint", st.Hubs)
						}
					})
				}
			})
		}
	}
}

func TestAggDifferential(t *testing.T) {
	testutil.NoLeak(t)
	t.Run("twocolor", func(t *testing.T) {
		runDiff(t, true, true, func(g *graph.Graph, seed int64) *fssga.Network[twocolor.State] {
			return twocolor.NewNetwork(g, 0, seed)
		})
	})
	t.Run("shortestpath", func(t *testing.T) {
		runDiff(t, true, true, func(g *graph.Graph, seed int64) *fssga.Network[shortestpath.State] {
			net, err := shortestpath.NewNetwork(g, []int{0}, 8, seed)
			if err != nil {
				t.Fatal(err)
			}
			return net
		})
	})
	t.Run("bfs", func(t *testing.T) {
		runDiff(t, true, true, func(g *graph.Graph, seed int64) *fssga.Network[bfs.State] {
			net, err := bfs.NewNetwork(g, 0, []int{g.Cap() - 1}, seed)
			if err != nil {
				t.Fatal(err)
			}
			return net
		})
	})
	t.Run("census-dense", func(t *testing.T) {
		runDiff(t, true, true, func(g *graph.Graph, seed int64) *fssga.Network[census.State] {
			net, err := census.NewNetwork(g, census.Config{Bits: 2, Sketches: 2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return net
		})
	})
	// Oversized census states fall back to map views: no dense automaton,
	// so aggregation must stay off and results stay identical.
	t.Run("census-map", func(t *testing.T) {
		runDiff(t, false, true, func(g *graph.Graph, seed int64) *fssga.Network[census.State] {
			net, err := census.NewNetwork(g, census.Config{Bits: 8, Sketches: 4, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return net
		})
	})
	// Election is randomized and declares no footprint: the seam must
	// leave it on the linear path untouched.
	t.Run("election", func(t *testing.T) {
		runDiff(t, false, false, func(g *graph.Graph, seed int64) *fssga.Network[election.State] {
			return election.New(g, seed).Net
		})
	})
	t.Run("parity", func(t *testing.T) {
		runDiff(t, true, true, func(g *graph.Graph, seed int64) *fssga.Network[int] {
			return fssga.New[int](g, diffParity{}, func(v int) int { return v % 2 }, seed)
		})
	})
	t.Run("coin", func(t *testing.T) {
		runDiff(t, true, false, func(g *graph.Graph, seed int64) *fssga.Network[int] {
			return fssga.New[int](g, diffCoin{}, func(v int) int { return v % 2 }, seed)
		})
	})
}

// TestAggDifferentialRestore checkpoints an aggregated run mid-flight
// (faults applied, trees warm) and restores into a fresh network, then
// finishes the run on a DIFFERENT engine. The restored half must land
// on the exact states of both the uninterrupted run and the
// linear-scan reference: tree metadata is rebuilt from scratch after
// restore, the restored round counter names the same streams, and the
// fault injector is replayed to the checkpoint round.
func TestAggDifferentialRestore(t *testing.T) {
	testutil.NoLeak(t)
	const rounds, ckptAt = 12, 6
	autos := []struct {
		name string
		mk   func(g *graph.Graph, seed int64) *fssga.Network[int]
	}{
		{"parity", func(g *graph.Graph, seed int64) *fssga.Network[int] {
			return fssga.New[int](g, diffParity{}, func(v int) int { return v % 2 }, seed)
		}},
		{"coin", func(g *graph.Graph, seed int64) *fssga.Network[int] {
			return fssga.New[int](g, diffCoin{}, func(v int) int { return v % 2 }, seed)
		}},
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
				// Random kills only (no forced hub death: the hub must
				// survive so the restored run provably serves hub views).
				g := tp.make()
				rng := rand.New(rand.NewSource(0x0ddca7))
				sched := faults.RandomSchedule(g, rounds, 0.4, 0.2, rng)

				// Linear-scan reference over the full 12 rounds.
				ref := au.mk(tp.make(), diffSeed)
				ref.SetAggDegreeCutoff(1 << 30)
				attachFaults(ref, sched)
				for r := 0; r < rounds; r++ {
					ref.SyncRound()
				}

				// Live aggregated run, checkpointed after round ckptAt.
				store := checkpoint.NewStore(checkpoint.NewMemFS(), 3)
				live := au.mk(tp.make(), diffSeed)
				live.SetAggDegreeCutoff(diffCutoff)
				attachFaults(live, sched)
				for r := 0; r < ckptAt; r++ {
					live.SyncRoundParallel(4)
				}
				mgr := checkpoint.NewManager(live, store, checkpoint.Meta{Target: "aggdiff"})
				if err := mgr.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				for r := ckptAt; r < rounds; r++ {
					live.SyncRoundParallel(4)
				}

				// Revived: fresh graph with the schedule replayed to the
				// checkpoint round, states and round counter restored, the
				// remaining rounds run serially.
				g2 := tp.make()
				inj2 := faults.NewInjector(sched)
				inj2.Advance(g2, ckptAt)
				revived := au.mk(g2, diffSeed)
				revived.SetAggDegreeCutoff(diffCutoff)
				meta, err := checkpoint.NewManager(revived, store, checkpoint.Meta{}).Restore()
				if err != nil {
					t.Fatal(err)
				}
				if meta.Round != ckptAt {
					t.Fatalf("restored round %d, want %d", meta.Round, ckptAt)
				}
				revived.OnBeforeRound = func(r int) { inj2.Advance(revived.G, r) }
				for r := ckptAt; r < rounds; r++ {
					revived.SyncRound()
				}

				if revived.Rounds != rounds {
					t.Fatalf("revived finished at round %d, want %d", revived.Rounds, rounds)
				}
				for v := range ref.States() {
					if revived.State(v) != ref.State(v) {
						t.Fatalf("node %d: revived %v, reference %v", v, revived.State(v), ref.State(v))
					}
					if revived.State(v) != live.State(v) {
						t.Fatalf("node %d: revived %v, uninterrupted %v", v, revived.State(v), live.State(v))
					}
				}
				if st := revived.AggStats(); st.HubViews == 0 {
					t.Fatalf("restored run never served a hub view (stats %+v)", st)
				}
			})
		}
	}
}
