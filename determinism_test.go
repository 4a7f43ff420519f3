package repro

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/agent"
	"repro/internal/algo/bridges"
	"repro/internal/algo/synchronizer"
	"repro/internal/algo/traversal"
	"repro/internal/faults"
	"repro/internal/fssga"
	"repro/internal/graph"
	"repro/internal/iwa"
	"repro/internal/sensitivity"
	"repro/internal/sm"
)

// TestSeededRunsRepeat holds the seeded entry points that no engine
// differential, pinned trajectory or chaos rerun reaches to the
// contract that a run is a function of its seed: each entry runs twice
// on one seed and must produce equal records, and once on the next seed
// and must produce a different one, which shows that the record
// depends on the entry's draws. A draw from the process-wide RNG or the
// wall clock at any of these sites makes the same-seed records differ.
// Entries that draw once per call record a batch of calls on one
// stream, so that a coincidence in one draw cannot hide the rest.
func TestSeededRunsRepeat(t *testing.T) {
	stream := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	parity := func(s int) bool { return s == 1 }
	tick := fssga.StepFunc[int](func(self int, _ *fssga.View[int], _ *rand.Rand) int { return (self + 1) % 5 })
	// async records the state vector after each activation, which
	// shows the order a scheduler picked.
	async := func(sched fssga.Scheduler, seed int64) any {
		net := fssga.New[int](graph.Grid(3, 4), tick, func(v int) int { return 0 }, 1)
		var trace [][]int
		net.RunAsync(sched, seed, 60, func(n *fssga.Network[int]) bool {
			trace = append(trace, append([]int(nil), n.States()...))
			return false
		})
		return trace
	}
	cases := []struct {
		name string
		run  func(t *testing.T, seed int64) any
	}{
		{"agent.Walker", func(t *testing.T, seed int64) any {
			return agent.VisitDistribution(graph.Grid(5, 5), 0, 400, stream(seed))
		}},
		{"bridges.Detector", func(t *testing.T, seed int64) any {
			g := graph.Barbell(4, 2)
			d, err := bridges.NewDetector(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			d.Run(300, stream(seed))
			var counters []int
			for _, e := range g.Edges() {
				counters = append(counters, d.Counter(e.U, e.V))
			}
			return counters
		}},
		{"synchronizer.Tracker.RunUnits", func(t *testing.T, seed int64) any {
			// Every node ticks once per unit whatever the order, but a
			// tick's coin is keyed by the network's activation count, so
			// the simulated rounds show the order the unit drew.
			coin := fssga.StepFunc[int](func(self int, view *fssga.View[int], rnd *rand.Rand) int {
				return (rnd.Intn(2) + view.CountMod(2, parity)) % 2
			})
			net := fssga.New[synchronizer.State[int]](graph.Grid(4, 4),
				synchronizer.Wrapped[int]{Inner: coin},
				synchronizer.WrapInit(func(v int) int { return v % 2 }), 1)
			tr := synchronizer.NewTracker(net)
			tr.RunUnits(6, stream(seed))
			return tr.History
		}},
		{"traversal.TouristTracker", func(t *testing.T, seed int64) any {
			g := graph.Torus(4, 4)
			tr, err := traversal.NewTourist(g, 0, seed)
			if err != nil {
				t.Fatal(err)
			}
			path := []int{tr.Pos}
			for !tr.Done() && tr.MoveOnce(4*g.NumNodes()+8) {
				path = append(path, tr.Pos)
			}
			return path
		}},
		{"iwa.Run", func(t *testing.T, seed int64) any {
			// Mark the current node and move to an unmarked neighbour
			// while there is one.
			m := &iwa.Machine{NumStates: 1, NumLabels: 2, Rules: []iwa.Rule{
				{State: 0, CurLabel: 0, CondLabel: iwa.NoCond, MoveLabel: 0, NewLabel: 1, NewState: 0},
				{State: 0, CurLabel: 0, CondLabel: iwa.NoCond, MoveLabel: iwa.NoMove, NewLabel: 1, NewState: 0},
			}}
			g := graph.Torus(4, 4)
			run, err := iwa.NewRun(m, g, make([]int, g.Cap()), 0)
			if err != nil {
				t.Fatal(err)
			}
			rng := stream(seed)
			path := []int{run.Pos}
			for run.Step(rng) {
				path = append(path, run.Pos)
			}
			return path
		}},
		{"fssga.FormalAutomaton", func(t *testing.T, seed int64) any {
			// Each activation's coin picks which state's presence it reports.
			f0, f1 := sm.AnyPresent(2, 0), sm.AnyPresent(2, 1)
			auto, err := fssga.NewProbabilisticFormal(2, 2, [][]sm.Func{{f0, f1}, {f0, f1}})
			if err != nil {
				t.Fatal(err)
			}
			net := fssga.New[int](graph.Grid(4, 4), auto, func(v int) int { return v % 2 }, seed)
			var states [][]int
			for r := 0; r < 4; r++ {
				net.SyncRound()
				states = append(states, append([]int(nil), net.States()...))
			}
			return states
		}},
		{"fssga.UniformRandom", func(t *testing.T, seed int64) any { return async(fssga.UniformRandom{}, seed) }},
		{"fssga.FairShuffle", func(t *testing.T, seed int64) any { return async(&fssga.FairShuffle{}, seed) }},
		{"graph.CycleWithChords", func(t *testing.T, seed int64) any { return graph.CycleWithChords(16, 6, stream(seed)).Edges() }},
		{"graph.RandomGNP", func(t *testing.T, seed int64) any { return graph.RandomGNP(16, 0.3, stream(seed)).Edges() }},
		{"graph.RandomBipartite", func(t *testing.T, seed int64) any { return graph.RandomBipartite(6, 8, 0.4, stream(seed)).Edges() }},
		{"graph.RandomRegularish", func(t *testing.T, seed int64) any { return graph.RandomRegularish(16, 3, stream(seed)).Edges() }},
		{"sm.RandomModThresh", func(t *testing.T, seed int64) any {
			rng := stream(seed)
			var out []*sm.ModThresh
			for i := 0; i < 20; i++ {
				out = append(out, sm.RandomModThresh(3, 3, 3, 4, 3, rng))
			}
			return out
		}},
		{"sm.RandomCounterSequential", func(t *testing.T, seed int64) any {
			rng := stream(seed)
			var out []*sm.Sequential
			for i := 0; i < 20; i++ {
				out = append(out, sm.RandomCounterSequential(2, 3, 3, 3, rng))
			}
			return out
		}},
		{"sm.RandomSequential", func(t *testing.T, seed int64) any {
			rng := stream(seed)
			var out []*sm.Sequential
			for i := 0; i < 20; i++ {
				out = append(out, sm.RandomSequential(2, 3, 4, rng))
			}
			return out
		}},
		{"sm.RandomParallel", func(t *testing.T, seed int64) any {
			rng := stream(seed)
			var out []*sm.Parallel
			for i := 0; i < 20; i++ {
				out = append(out, sm.RandomParallel(2, 3, 4, rng))
			}
			return out
		}},
		{"sm.RandomCommutativeMonoidParallel", func(t *testing.T, seed int64) any {
			rng := stream(seed)
			var out []*sm.Parallel
			for i := 0; i < 20; i++ {
				out = append(out, sm.RandomCommutativeMonoidParallel(2, 3, 3, 3, rng))
			}
			return out
		}},
		{"sm.Parallel.EvalRandomTree", func(t *testing.T, seed int64) any {
			// A random parallel program is almost never tree-independent,
			// so its value shows which tree the stream drew.
			p := sm.RandomParallel(3, 4, 5, stream(1))
			rng := stream(seed)
			var out []int
			for n := 2; n < 12; n++ {
				qs := make([]int, n)
				for i := range qs {
					qs[i] = i % 3
				}
				for k := 0; k < 4; k++ {
					out = append(out, p.EvalRandomTree(qs, rng))
				}
			}
			return out
		}},
		{"sensitivity.Measure", func(t *testing.T, seed int64) any {
			var seen []string
			probe := sensitivity.Probe{Name: "record", Run: func(g *graph.Graph, sched faults.Schedule, seed int64) sensitivity.Report {
				seen = append(seen, fmt.Sprint(g.Edges(), sched, seed))
				return sensitivity.Report{}
			}}
			sensitivity.Measure(probe, 4, 12, 0.2, seed)
			return seen
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.run(t, 7), tc.run(t, 7)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two runs on seed 7 differ:\n%v\n%v", a, b)
			}
			if reflect.DeepEqual(a, tc.run(t, 8)) {
				t.Fatalf("seeds 7 and 8 give the same record %v: it does not show the entry's draws", a)
			}
		})
	}
}
