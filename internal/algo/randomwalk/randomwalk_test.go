package randomwalk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/agent"
	"repro/internal/fssga"
	"repro/internal/graph"
	"repro/internal/stats"
)

func TestStateString(t *testing.T) {
	if Blank.String() != "blank" || Flip.String() != "flip!" ||
		OneTails.String() != "onetails" || State(99).String() != "invalid" {
		t.Fatal("state names wrong")
	}
}

func TestIsWalker(t *testing.T) {
	for _, s := range []State{Flip, Waiting, NoTails, OneTails} {
		if !IsWalker(s) {
			t.Fatalf("%v should be a walker state", s)
		}
	}
	for _, s := range []State{Blank, Heads, Tails, Eliminated} {
		if IsWalker(s) {
			t.Fatalf("%v should not be a walker state", s)
		}
	}
}

func TestNewDeadStartErrors(t *testing.T) {
	g := graph.Path(3)
	g.RemoveNode(0)
	if _, err := New(g, 0, 1); err == nil {
		t.Fatal("dead start accepted")
	}
}

func TestExactlyOneWalkerInvariant(t *testing.T) {
	g := graph.Lollipop(6, 4)
	tr, err := New(g, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 500; r++ {
		if !tr.Round() {
			t.Fatal("walker died in fault-free run")
		}
		if c := tr.WalkerCount(); c != 1 {
			t.Fatalf("round %d: %d walker nodes", r, c)
		}
	}
}

func TestWalkerMovesAlongEdges(t *testing.T) {
	g := graph.Grid(4, 4)
	tr, err := New(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr.RunMoves(30, 100000)
	if tr.Moves < 30 {
		t.Fatalf("only %d moves", tr.Moves)
	}
	for i := 0; i+1 < len(tr.Trajectory); i++ {
		if !g.HasEdge(tr.Trajectory[i], tr.Trajectory[i+1]) {
			t.Fatalf("trajectory hop (%d,%d) is not an edge", tr.Trajectory[i], tr.Trajectory[i+1])
		}
	}
}

func TestFirstMoveUniformOnStar(t *testing.T) {
	// The walker at the centre of a star must hand off to a uniformly
	// random leaf.
	const leaves = 8
	counts := make([]int, leaves+1)
	const trials = 2000
	for seed := int64(0); seed < trials; seed++ {
		g := graph.Star(leaves + 1)
		tr, err := New(g, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := tr.RunMoves(1, 10000); !ok {
			t.Fatal("walker failed to move")
		}
		counts[tr.Pos]++
	}
	want := float64(trials) / leaves
	for leaf := 1; leaf <= leaves; leaf++ {
		if math.Abs(float64(counts[leaf])-want) > 4*math.Sqrt(want) {
			t.Fatalf("leaf %d received %d hand-offs, want ~%.0f (counts=%v)", leaf, counts[leaf], want, counts)
		}
	}
}

// growthDegrees are the star degrees the tournament-length checks use:
// each is four times the last, so log d grows by the same step.
var growthDegrees = []float64{4, 16, 64, 256}

// growthSeeds is the number of seeds per degree. A tournament's length
// has a standard deviation of about 3.5 rounds at every degree; at 200
// seeds the span check below holds by about 10 standard errors, so it
// does not pass or fail by seed luck.
const growthSeeds = 200

// logGrowthViolation checks that per-seed tournament lengths, one sample
// per growthDegrees entry, grow like log d, and describes the violation
// ("" if none). Θ(log d) adds the same number of rounds for every
// quadrupling of d, so the rounds added from d=16 to d=256 and from d=4
// to d=64, both two quadruplings, are about equal; growth linear in d
// makes the upper span four times the lower. The check allows twice.
// The means must also increase, with a log-log slope well below 1.
func logGrowthViolation(rounds [][]float64) string {
	means := make([]float64, len(rounds))
	sds := make([]float64, len(rounds))
	for i, rs := range rounds {
		s := stats.Summarize(rs)
		means[i], sds[i] = s.Mean, s.Std
	}
	for i := 1; i < len(means); i++ {
		if means[i] < means[i-1] {
			return fmt.Sprintf("means not increasing: %v", means)
		}
	}
	upper, lower := means[3]-means[1], means[2]-means[0]
	if upper > 2*lower {
		n := float64(len(rounds[0]))
		se := math.Sqrt((sds[3]*sds[3] + sds[1]*sds[1] + 4*sds[2]*sds[2] + 4*sds[0]*sds[0]) / n)
		return fmt.Sprintf("d=16→256 adds %.2f rounds, more than twice the %.2f of d=4→64 (%.1f standard errors over; means %v)",
			upper, lower, (upper-2*lower)/se, means)
	}
	if fit := stats.LogLogFit(growthDegrees, means); fit.Slope > 0.5 {
		return fmt.Sprintf("log-log slope %.2f, want << 1 (means=%v)", fit.Slope, means)
	}
	return ""
}

func TestMoveRoundsGrowLogarithmically(t *testing.T) {
	// Expected rounds per move at a degree-d node is Θ(log d): the mean
	// tournament length on stars grows linearly in log d.
	rounds := make([][]float64, len(growthDegrees))
	for i, d := range growthDegrees {
		for seed := int64(0); seed < growthSeeds; seed++ {
			tr, err := New(graph.Star(int(d)+1), 0, seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := tr.RunMoves(1, 100000); !ok {
				t.Fatal("no move")
			}
			rounds[i] = append(rounds[i], float64(tr.MoveRounds[0]))
		}
	}
	if msg := logGrowthViolation(rounds); msg != "" {
		t.Fatal(msg)
	}
}

// TestLogGrowthCheckRejectsLinearTournament injects a tournament whose
// length grows linearly in d — each round eliminates one of the
// survivors with probability 1/2 — and requires the check above to
// reject it.
func TestLogGrowthCheckRejectsLinearTournament(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rounds := make([][]float64, len(growthDegrees))
	for i, d := range growthDegrees {
		for seed := 0; seed < growthSeeds; seed++ {
			r := 0
			for left := int(d); left > 1; r++ {
				if rng.Intn(2) == 0 {
					left--
				}
			}
			rounds[i] = append(rounds[i], float64(r))
		}
	}
	if logGrowthViolation(rounds) == "" {
		t.Fatal("a tournament linear in d passed the Θ(log d) check")
	}
}

func TestVisitFrequencyTracksDegree(t *testing.T) {
	// On a star, the centre is visited every other move (stationary mass
	// 1/2) — matching the uniform random walk law.
	g := graph.Star(6)
	tr, err := New(g, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.RunMoves(400, 2000000); !ok {
		t.Fatal("walk too slow")
	}
	centerFrac := float64(tr.Visited[0]) / float64(tr.Moves+1)
	if math.Abs(centerFrac-0.5) > 0.05 {
		t.Fatalf("centre visit fraction %.3f, want ~0.5", centerFrac)
	}
}

func TestTwoNodeHandoff(t *testing.T) {
	// Degree 1: the single neighbour must win every tournament.
	g := graph.Path(2)
	tr, err := New(g, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr.RunMoves(6, 10000)
	if tr.Moves < 6 {
		t.Fatalf("moves = %d", tr.Moves)
	}
	for i, pos := range tr.Trajectory {
		if pos != i%2 {
			t.Fatalf("trajectory = %v, want strict alternation", tr.Trajectory)
		}
	}
}

func TestWalkerDiesWithNodeFault(t *testing.T) {
	// Killing the walker's node destroys the walker — the sensitivity-1
	// behaviour of agent algorithms (Section 2.1).
	g := graph.Cycle(6)
	tr, err := New(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.Net.G.RemoveNode(tr.Pos)
	if tr.Round() {
		t.Fatal("walker survived its node's death")
	}
	if _, ok := tr.WalkerAt(); ok {
		t.Fatal("WalkerAt found a ghost")
	}
}

func TestStepNeighborRules(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	a := automaton{}
	// Heads neighbour of flip! gets eliminated.
	if got := a.Step(Heads, fssga.NewView([]State{Flip}), rnd); got != Eliminated {
		t.Fatalf("heads near flip! = %v", got)
	}
	// Eliminated stays eliminated near flip!.
	if got := a.Step(Eliminated, fssga.NewView([]State{Flip}), rnd); got != Eliminated {
		t.Fatalf("eliminated near flip! = %v", got)
	}
	// Blank near flip! flips a coin.
	got := a.Step(Blank, fssga.NewView([]State{Flip}), rnd)
	if got != Heads && got != Tails {
		t.Fatalf("blank near flip! = %v", got)
	}
	// Tails near onetails receives the walker.
	if got := a.Step(Tails, fssga.NewView([]State{OneTails}), rnd); got != Flip {
		t.Fatalf("tails near onetails = %v", got)
	}
	// Anyone else near onetails resets to blank.
	if got := a.Step(Heads, fssga.NewView([]State{OneTails}), rnd); got != Blank {
		t.Fatalf("heads near onetails = %v", got)
	}
	// Tails near notails holds (only heads re-flip).
	if got := a.Step(Tails, fssga.NewView([]State{NoTails}), rnd); got != Tails {
		t.Fatalf("tails near notails = %v", got)
	}
	// Neighbours of waiting walker hold their flips.
	if got := a.Step(Heads, fssga.NewView([]State{Waiting}), rnd); got != Heads {
		t.Fatalf("heads near waiting = %v", got)
	}
}

func TestStepWalkerRules(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	a := automaton{}
	// Waiting walker counts tails.
	if got := a.Step(Waiting, fssga.NewView([]State{Heads, Heads}), rnd); got != NoTails {
		t.Fatalf("waiting with no tails = %v", got)
	}
	if got := a.Step(Waiting, fssga.NewView([]State{Heads, Tails}), rnd); got != OneTails {
		t.Fatalf("waiting with one tails = %v", got)
	}
	if got := a.Step(Waiting, fssga.NewView([]State{Tails, Tails, Heads}), rnd); got != Flip {
		t.Fatalf("waiting with two tails = %v", got)
	}
	// flip!/notails advance to waiting.
	if got := a.Step(Flip, fssga.NewView([]State{Blank}), rnd); got != Waiting {
		t.Fatalf("flip! advances to %v", got)
	}
	if got := a.Step(NoTails, fssga.NewView([]State{Heads}), rnd); got != Waiting {
		t.Fatalf("notails advances to %v", got)
	}
	// onetails clears to blank.
	if got := a.Step(OneTails, fssga.NewView([]State{Heads, Blank}), rnd); got != Blank {
		t.Fatalf("onetails clears to %v", got)
	}
}

// The FSSGA walk law equals the direct uniform random walk not just in
// expectation: the hitting-time distributions are KS-indistinguishable.
func TestWalkLawMatchesDirectWalkKS(t *testing.T) {
	const n = 10
	const trials = 250
	var walkerHits, directHits []float64
	for i := int64(0); i < trials; i++ {
		g := graph.Cycle(n)
		tr, err := New(g, 0, 1000+i)
		if err != nil {
			t.Fatal(err)
		}
		for tr.Pos != n/2 {
			if _, ok := tr.RunMoves(1, 1000000); !ok {
				t.Fatal("walk stalled")
			}
		}
		walkerHits = append(walkerHits, float64(tr.Moves))

		rng := rand.New(rand.NewSource(2000 + i))
		s, ok := agent.HittingTime(graph.Cycle(n), 0, n/2, 10000000, rng)
		if !ok {
			t.Fatal("direct walk stalled")
		}
		directHits = append(directHits, float64(s))
	}
	d := stats.KSStatistic(walkerHits, directHits)
	// Use the stricter 1% threshold to keep the test robust.
	if thr := stats.KSThreshold(trials, trials, 0.01); d > thr {
		t.Fatalf("hitting-time laws differ: KS=%.3f > %.3f", d, thr)
	}
}
