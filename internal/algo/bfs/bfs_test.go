package bfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"

	"repro/internal/algo/synchronizer"
	"repro/internal/fssga"
	"repro/internal/graph"
)

func TestStatusString(t *testing.T) {
	if Waiting.String() != "waiting" || Found.String() != "found" ||
		Failed.String() != "failed" || Status(9).String() != "invalid" {
		t.Fatal("status names wrong")
	}
}

func TestLabelsAreDistancesMod3(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		g := graph.RandomConnectedGNP(n, 0.12, rng)
		origin := rng.Intn(n)
		res, err := Run(g, origin, nil, 10*n, seed)
		if err != nil || !res.Converged {
			return false
		}
		dist := g.BFSDistances(origin)
		for v := 0; v < n; v++ {
			if res.Labels[v] != int8(dist[v]%3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickN(t, 101, 30)); err != nil {
		t.Fatal(err)
	}
}

func TestTargetFound(t *testing.T) {
	g := graph.Path(10)
	res, err := Run(g, 0, []int{9}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("reachable target not found")
	}
	if res.Statuses[0] != Found {
		t.Fatal("originator not marked found")
	}
	// Every node on the unique shortest path must be found.
	for v := 0; v < 10; v++ {
		if res.Statuses[v] != Found {
			t.Fatalf("path node %d status = %v", v, res.Statuses[v])
		}
	}
}

func TestTargetUnreachableFails(t *testing.T) {
	g := graph.Path(6)
	g.RemoveEdge(2, 3)
	res, err := Run(g, 0, []int{5}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("unreachable target reported found")
	}
	if res.Statuses[0] != Failed {
		t.Fatalf("originator status = %v, want failed", res.Statuses[0])
	}
	// Unreached nodes stay unlabelled.
	for v := 3; v < 6; v++ {
		if res.Labels[v] != NoLabel {
			t.Fatalf("disconnected node %d got label %d", v, res.Labels[v])
		}
	}
}

func TestNoTargetEndsFailed(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		g := graph.RandomConnectedGNP(n, 0.15, rng)
		res, err := Run(g, 0, nil, 20*n, seed)
		if err != nil || !res.Converged {
			return false
		}
		// Without a target every node must settle on Failed.
		for v := 0; v < n; v++ {
			if res.Statuses[v] != Failed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickN(t, 102, 30)); err != nil {
		t.Fatal(err)
	}
}

func TestFoundPropagationTiming(t *testing.T) {
	// Labelling takes d rounds to reach the target, and the found report
	// takes d rounds back: total ~2d (+1 quiescence check margin).
	g := graph.Path(21)
	d := 20
	res, err := Run(g, 0, []int{20}, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("not found")
	}
	if res.Rounds > 2*d+2 {
		t.Fatalf("rounds = %d, want <= %d", res.Rounds, 2*d+2)
	}
}

func TestMultipleTargetsNearestWins(t *testing.T) {
	g := graph.Path(9)
	res, err := Run(g, 4, []int{0, 8}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("targets not found")
	}
}

func TestOriginatorIsTarget(t *testing.T) {
	g := graph.Path(4)
	res, err := Run(g, 1, []int{1}, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("self-target not found")
	}
}

func TestNewNetworkErrors(t *testing.T) {
	g := graph.Path(4)
	g.RemoveNode(2)
	if _, err := NewNetwork(g, 2, nil, 1); err == nil {
		t.Fatal("dead originator accepted")
	}
	if _, err := NewNetwork(g, 0, []int{2}, 1); err == nil {
		t.Fatal("dead target accepted")
	}
	for _, target := range []int{-1, 4} {
		if _, err := NewNetwork(g, 0, []int{1, target}, 1); err == nil {
			t.Fatalf("out-of-range target %d accepted", target)
		}
	}
}

// The asynchronous variant — the BFS automaton wrapped in the
// α synchronizer (Section 4.2), exactly as the paper prescribes — must
// produce the same labels and verdict as the synchronous run.
func TestAsyncViaSynchronizer(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		g := graph.RandomConnectedGNP(n, 0.15, rng)
		target := rng.Intn(n)

		syncRes, err := Run(g.Clone(), 0, []int{target}, 20*n, seed)
		if err != nil || !syncRes.Converged {
			return false
		}

		isTarget := func(v int) bool { return v == target }
		net := fssga.New[synchronizer.State[State]](g,
			synchronizer.Wrapped[State]{Inner: automaton{}},
			synchronizer.WrapInit(func(v int) State {
				return State{Originator: v == 0, Target: isTarget(v), Label: NoLabel, Status: Waiting}
			}),
			seed)
		tr := synchronizer.NewTracker(net)
		tr.RunUnits(6*n+20, rng)

		for v := 0; v < n; v++ {
			got := net.State(v).Cur
			if got.Label != syncRes.Labels[v] || got.Status != syncRes.Statuses[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickN(t, 103, 15)); err != nil {
		t.Fatal(err)
	}
}

func TestStepFrontierDoesNotVacuouslyFail(t *testing.T) {
	// A labelled node with an unlabelled neighbour must keep waiting, not
	// fail vacuously.
	self := State{Label: 0, Status: Waiting}
	view := fssga.NewView([]State{{Label: NoLabel, Status: Waiting}})
	out := (automaton{}).Step(self, view, nil)
	if out.Status != Waiting {
		t.Fatalf("status = %v, want waiting", out.Status)
	}
}

func TestStepLeafFailsWhenNoSuccessorsPossible(t *testing.T) {
	// All neighbours labelled, none a successor: vacuous all-failed.
	self := State{Label: 2, Status: Waiting}
	view := fssga.NewView([]State{{Label: 1, Status: Waiting}})
	out := (automaton{}).Step(self, view, nil)
	if out.Status != Failed {
		t.Fatalf("status = %v, want failed", out.Status)
	}
}

func TestStepPredecessorFoundMeansDoNothing(t *testing.T) {
	self := State{Label: 1, Status: Waiting}
	view := fssga.NewView([]State{
		{Label: 0, Status: Found},  // predecessor found
		{Label: 2, Status: Failed}, // successor failed
	})
	out := (automaton{}).Step(self, view, nil)
	if out.Status != Waiting {
		t.Fatalf("status = %v, want waiting (do nothing)", out.Status)
	}
}

func TestRegressed(t *testing.T) {
	base := State{Label: 1, Status: Found}
	legal := []struct{ old, next State }{
		{State{Label: NoLabel}, State{Label: 2}},           // wave arrives
		{State{Label: 1}, State{Label: 1, Status: Found}},  // report
		{State{Label: 1}, State{Label: 1, Status: Failed}}, // give up
		{base, base}, // frozen
	}
	for i, c := range legal {
		if msg := Regressed(c.old, c.next); msg != "" {
			t.Fatalf("legal case %d flagged: %s", i, msg)
		}
	}
	illegal := []struct{ old, next State }{
		{State{Label: 1}, State{Label: 2}},                                 // label rewrite
		{State{Label: 1}, State{Label: NoLabel}},                           // label erased
		{State{Label: 1, Status: Found}, State{Label: 1, Status: Waiting}}, // status back
		{State{Label: 1, Status: Failed}, State{Label: 1, Status: Found}},  // status flip
		{State{Originator: true, Label: 0}, State{Label: 0}},               // flag flip
		{State{Target: true, Label: NoLabel}, State{Label: 1}},             // flag flip
	}
	for i, c := range illegal {
		if Regressed(c.old, c.next) == "" {
			t.Fatalf("illegal case %d not flagged", i)
		}
	}
}

// TestRegressedNeverFiresOnRealRuns: a faulted synchronous run never takes
// an illegal transition.
func TestRegressedNeverFiresOnRealRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.RandomConnectedGNP(30, 0.12, rng)
	g.Seal()
	net, err := NewNetwork(g, 0, []int{29}, 3)
	if err != nil {
		t.Fatal(err)
	}
	prev := make([]State, g.Cap())
	for v := range prev {
		prev[v] = net.State(v)
	}
	for r := 1; r <= 40; r++ {
		if r == 5 {
			g.RemoveNode(7)
		}
		if r == 9 {
			g.RemoveEdge(0, g.SortedNeighbors(0, nil)[0])
		}
		net.SyncRound()
		for v := 0; v < g.Cap(); v++ {
			if !g.Alive(v) {
				continue
			}
			if msg := Regressed(prev[v], net.State(v)); msg != "" {
				t.Fatalf("round %d node %d: %s", r, v, msg)
			}
			prev[v] = net.State(v)
		}
	}
}
