package iwa

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fssga"
	"repro/internal/graph"
	"repro/internal/sm"
)

// markerMachine is the canonical test IWA: labels {0 = unmarked,
// 1 = marked}; the agent marks its position and moves to any unmarked
// neighbour, halting when none remains. On a cycle it marks every node.
func markerMachine() *Machine {
	return &Machine{
		NumStates: 1,
		NumLabels: 2,
		Rules: []Rule{
			// At an unmarked node with an unmarked neighbour: mark, move on.
			{State: 0, CurLabel: 0, CondLabel: NoCond, MoveLabel: 0, NewLabel: 1, NewState: 0},
			// At an unmarked node with no unmarked neighbour: mark, stay
			// (then halt, since no rule matches a marked position).
			{State: 0, CurLabel: 0, CondLabel: NoCond, MoveLabel: NoMove, NewLabel: 1, NewState: 0},
		},
	}
}

func zeroLabels(g *graph.Graph) []int { return make([]int, g.Cap()) }

func TestMachineValidate(t *testing.T) {
	if err := markerMachine().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Machine{NumStates: 1, NumLabels: 2, Rules: []Rule{{State: 5, CurLabel: 0, CondLabel: NoCond, MoveLabel: NoMove}}}
	if bad.Validate() == nil {
		t.Fatal("bad state accepted")
	}
	bad2 := &Machine{NumStates: 1, NumLabels: 2, Rules: []Rule{{State: 0, CurLabel: 0, CondLabel: 9, MoveLabel: NoMove}}}
	if bad2.Validate() == nil {
		t.Fatal("bad cond label accepted")
	}
	bad3 := &Machine{NumStates: 0, NumLabels: 2}
	if bad3.Validate() == nil {
		t.Fatal("zero states accepted")
	}
}

func TestNewRunErrors(t *testing.T) {
	m := markerMachine()
	g := graph.Path(3)
	if _, err := NewRun(m, g, []int{0, 0}, 0); err == nil {
		t.Fatal("short labels accepted")
	}
	if _, err := NewRun(m, g, []int{0, 0, 9}, 0); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	g.RemoveNode(1)
	if _, err := NewRun(m, g, []int{0, 0, 0}, 1); err == nil {
		t.Fatal("dead start accepted")
	}
}

func TestMarkerMachineCoversCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Cycle(10)
	run, err := NewRun(markerMachine(), g, zeroLabels(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	run.RunSteps(1000, rng)
	if !run.Halted {
		t.Fatal("machine did not halt")
	}
	for v := 0; v < 10; v++ {
		if run.Labels[v] != 1 {
			t.Fatalf("node %d unmarked", v)
		}
	}
	// On a cycle the marker walks n-1 edges.
	if run.Steps != 9 {
		t.Fatalf("steps = %d, want 9", run.Steps)
	}
}

func TestMarkerMachineOnPathMayStrand(t *testing.T) {
	// Starting mid-path, the marker picks one direction and cannot come
	// back; some runs leave nodes unmarked (the machine is deliberately
	// simple, not a full traversal).
	rng := rand.New(rand.NewSource(3))
	g := graph.Path(7)
	run, err := NewRun(markerMachine(), g, zeroLabels(g), 3)
	if err != nil {
		t.Fatal(err)
	}
	run.RunSteps(100, rng)
	if !run.Halted {
		t.Fatal("did not halt")
	}
	marked := 0
	for _, l := range run.Labels {
		marked += l
	}
	if marked < 4 || marked > 7 {
		t.Fatalf("marked = %d", marked)
	}
}

func TestCondRules(t *testing.T) {
	// A machine that only marks when some neighbour is already marked —
	// exercising CondPresent both ways.
	m := &Machine{
		NumStates: 1,
		NumLabels: 3, // 0 plain, 1 marked, 2 seed
		Rules: []Rule{
			// Seed: relabel to marked.
			{State: 0, CurLabel: 2, CondLabel: NoCond, MoveLabel: 0, NewLabel: 1, NewState: 0},
			// Plain node adjacent to a marked node: mark and advance.
			{State: 0, CurLabel: 0, CondLabel: 1, CondPresent: true, MoveLabel: 0, NewLabel: 1, NewState: 0},
			// Plain node NOT adjacent to any marked node: halt-marker.
			{State: 0, CurLabel: 0, CondLabel: 1, CondPresent: false, MoveLabel: NoMove, NewLabel: 2, NewState: 0},
		},
	}
	rng := rand.New(rand.NewSource(1))
	g := graph.Path(5)
	labels := []int{2, 0, 0, 0, 0}
	run, err := NewRun(m, g, labels, 0)
	if err != nil {
		t.Fatal(err)
	}
	run.RunSteps(100, rng)
	// The wave marks 0..3; at node 4 (no unmarked neighbour) rule 2 cannot
	// fire (no move target), so the machine relabels via rule 3? No: node
	// 4's neighbour (3) is marked, so rule 2 requires an unmarked move
	// target and fails; rule 3 requires NO marked neighbour and fails.
	if !run.Halted {
		t.Fatal("did not halt")
	}
	want := []int{1, 1, 1, 1, 0}
	for v, w := range want {
		if run.Labels[v] != w {
			t.Fatalf("labels = %v, want %v", run.Labels, want)
		}
	}
}

func TestFSSGASimulatorMatchesDirectRun(t *testing.T) {
	// The FSSGA simulation of the marker machine must mark the whole
	// cycle and halt, exactly like the direct run. A twin on the same
	// seed must hold the same states after every round: the agent's
	// coins come from the network's keyed streams alone.
	g := graph.Cycle(8)
	sim, err := NewSimulator(markerMachine(), g, zeroLabels(g), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewSimulator(markerMachine(), graph.Cycle(8), zeroLabels(g), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; !sim.Halted(); r++ {
		if r > 20000 {
			t.Fatal("simulation did not halt")
		}
		if !sim.Round() || !twin.Round() {
			t.Fatalf("round %d: agent lost", r)
		}
		if !reflect.DeepEqual(sim.Net.States(), twin.Net.States()) {
			t.Fatalf("round %d: twin on the same seed diverged", r)
		}
	}
	for v, l := range sim.Labels() {
		if l != 1 {
			t.Fatalf("node %d label %d", v, l)
		}
	}
	if sim.Moves != 7 {
		t.Fatalf("moves = %d, want 7", sim.Moves)
	}
}

func TestFSSGASimulatorDelayIsLogDegree(t *testing.T) {
	// One agent move on a star with d leaves costs Θ(log d) rounds:
	// quadrupling d must grow rounds/move slowly.
	roundsPerMove := func(d int) float64 {
		total := 0
		const trials = 10
		for seed := int64(0); seed < trials; seed++ {
			g := graph.Star(d + 1)
			sim, err := NewSimulator(markerMachine(), g, zeroLabels(g), 0, seed)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; sim.Moves < 1; r++ {
				if r > 100000 {
					t.Fatal("agent never moved")
				}
				if !sim.Round() {
					t.Fatal("agent lost")
				}
			}
			total += sim.Rounds
		}
		return float64(total) / trials
	}
	small := roundsPerMove(8)
	big := roundsPerMove(128)
	if big > 3*small {
		t.Fatalf("rounds/move grew too fast: %f -> %f", small, big)
	}
}

func TestSimulatorExactlyOneAgent(t *testing.T) {
	g := graph.Grid(3, 3)
	sim, err := NewSimulator(markerMachine(), g, zeroLabels(g), 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3000 && !sim.Halted(); r++ {
		if !sim.Round() {
			t.Fatal("agent lost")
		}
		count := 0
		for v := 0; v < 9; v++ {
			if sim.Net.State(v).Agent {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("round %d: %d agents", r, count)
		}
	}
}

func TestSimulatorErrors(t *testing.T) {
	m := markerMachine()
	g := graph.Path(3)
	if _, err := NewSimulator(m, g, []int{0}, 0, 1); err == nil {
		t.Fatal("short labels accepted")
	}
	bad := &Machine{NumStates: 0, NumLabels: 1}
	if _, err := NewSimulator(bad, g, []int{0, 0, 0}, 0, 1); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

// SimulateRound: the IWA-agent simulation of one FSSGA round must produce
// exactly the states the FSSGA network itself computes, in Θ(m) steps.
func TestSimulateRoundMatchesFSSGA(t *testing.T) {
	// Use the OR-diffusion automaton over 4 states (2 bits).
	numQ := 4
	orFn := sm.BitwiseOR(2)
	fs := make([]sm.Func, numQ)
	for q := 0; q < numQ; q++ {
		fs[q] = orSelf{or: orFn, self: q}
	}
	auto, err := fssga.NewDeterministicFormal(numQ, fs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnectedGNP(12, 0.3, rng)
	states := make([]int, g.Cap())
	for v := range states {
		states[v] = rng.Intn(numQ)
	}

	// Reference: one synchronous round on the real network.
	net := fssga.New[int](g.Clone(), auto, func(v int) int { return states[v] }, 1)
	net.SyncRound()

	next, steps, err := SimulateRound(g, auto, states)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.Cap(); v++ {
		if next[v] != net.State(v) {
			t.Fatalf("node %d: simulated %d vs real %d", v, next[v], net.State(v))
		}
	}
	// Θ(m): at least 2m (edge inspections), at most a small multiple of
	// m plus the walking overhead.
	m := g.NumEdges()
	if steps < 2*m {
		t.Fatalf("steps = %d < 2m = %d", steps, 2*m)
	}
	if steps > 2*m+g.NumNodes()*g.NumNodes() {
		t.Fatalf("steps = %d too large for m = %d", steps, m)
	}
}

type orSelf struct {
	or   sm.Func
	self int
}

func (o orSelf) Eval(qs []int) int { return o.or.Eval(qs) | o.self }

func TestSimulateRoundErrors(t *testing.T) {
	auto, err := fssga.NewDeterministicFormal(2, []sm.Func{sm.AnyPresent(2, 1), sm.AnyPresent(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Path(3)
	if _, _, err := SimulateRound(g, auto, []int{0}); err == nil {
		t.Fatal("short states accepted")
	}
}
