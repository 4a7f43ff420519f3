package repro

// Cross-module integration tests: pipelines that exercise several
// subsystems together, the way a downstream user would compose them.

import (
	"math/rand"
	"testing"

	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/algo/shortestpath"
	"repro/internal/algo/traversal"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sensitivity"
)

// TestPipelineCensusThenElection runs a census to size the network, then
// elects a leader on the same (already-used) topology — two algorithms
// sharing one graph instance sequentially.
func TestPipelineCensusThenElection(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.RandomConnectedGNP(24, 0.15, rng)

	cres, err := census.Run(g, census.Config{Bits: 14, Sketches: 8, Seed: 1}, 20*g.NumNodes()+40)
	if err != nil || !cres.Converged {
		t.Fatalf("census: %+v err=%v", cres, err)
	}
	tr := election.New(g, 2)
	if _, ok := tr.Run(100000*g.NumNodes(), 3*g.NumNodes()+10); !ok {
		t.Fatalf("election: no leader (remaining=%d phases=%d)", tr.Remaining(), tr.Phases)
	}
}

// TestPipelineFaultsAcrossAlgorithms applies one shared fault schedule to
// a census network and a shortest-path network over clones of the same
// topology; both 0-sensitive algorithms must stay correct.
func TestPipelineFaultsAcrossAlgorithms(t *testing.T) {
	base := graph.Torus(5, 5)
	base.Seal()
	sched := faults.Schedule{
		faults.EdgeAt(2, 0, 1),
		faults.NodeAt(4, 12),
		faults.EdgeAt(6, 20, 21),
	}

	// Census under the schedule.
	gC := base.Clone()
	cfg := census.Config{Bits: 14, Sketches: 8, Seed: 3}
	netC, err := census.NewNetwork(gC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inC := faults.NewInjector(sched)
	for r := 1; r <= 10; r++ {
		inC.Advance(gC, r)
		netC.SyncRound()
	}
	netC.RunSyncUntilQuiescent(500)
	est := census.Estimate(netC.State(0), cfg)
	if est < float64(gC.NumNodes())/4 || est > 4*25 {
		t.Fatalf("census estimate %v implausible for %d survivors", est, gC.NumNodes())
	}

	// Shortest paths under the same schedule.
	gS := base.Clone()
	netS, err := shortestpath.NewNetwork(gS, []int{0}, 25, 3)
	if err != nil {
		t.Fatal(err)
	}
	inS := faults.NewInjector(sched)
	for r := 1; r <= 10; r++ {
		inS.Advance(gS, r)
		netS.SyncRound()
	}
	if _, ok := netS.RunSyncUntilQuiescent(500); !ok {
		t.Fatal("labels did not restabilize")
	}
	want := gS.BFSDistances(0)
	for v := 0; v < gS.Cap(); v++ {
		if !gS.Alive(v) || want[v] == graph.Unreachable {
			continue
		}
		if netS.State(v).Label != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, netS.State(v).Label, want[v])
		}
	}
}

// TestPipelineTraversalValidatesCensusGroundTruth walks a Milgram agent
// over the graph and cross-checks that the set of visited nodes matches
// the census's notion of the network: every visited node contributed to
// the OR fixed point.
func TestPipelineTraversalValidatesCensusGroundTruth(t *testing.T) {
	g := graph.Grid(4, 4)
	mt, err := traversal.NewMilgram(g.Clone(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, done := mt.Run(500000); !done {
		t.Fatal("traversal incomplete")
	}
	if mt.VisitedCount() != 16 {
		t.Fatalf("visited %d of 16", mt.VisitedCount())
	}

	res, err := census.Run(g, census.Config{Bits: 14, Sketches: 8, Seed: 5}, 20*g.NumNodes()+40)
	if err != nil || !res.Converged {
		t.Fatalf("census on traversed graph: %+v err=%v", res, err)
	}
}

// TestSensitivityHarnessAgreesWithDirectRun cross-checks the sensitivity
// probe abstraction against a direct algorithm invocation on the same
// faulted topology.
func TestSensitivityHarnessAgreesWithDirectRun(t *testing.T) {
	probe := sensitivity.ShortestPathProbe(func(g *graph.Graph) []int { return []int{0} })
	g := graph.Grid(5, 5)
	g.Seal()
	sched := faults.Schedule{faults.NodeAt(3, 13)}
	rep := probe.Run(g.Clone(), sched, 7)
	if !rep.Correct || rep.Critical {
		t.Fatalf("probe: %+v", rep)
	}

	// Direct run on the post-fault graph gives the same labels.
	gDirect := g.Clone()
	gDirect.RemoveNode(13)
	res, err := shortestpath.Run(gDirect, []int{0}, 20*gDirect.NumNodes()+40, 7)
	if err != nil || !res.Converged {
		t.Fatalf("direct: %+v err=%v", res, err)
	}
	want := gDirect.BFSDistances(0)
	for v := 0; v < gDirect.Cap(); v++ {
		if gDirect.Alive(v) && res.Labels[v] != want[v] {
			t.Fatalf("direct: label[%d] = %d, want %d", v, res.Labels[v], want[v])
		}
	}
}

// TestElectionSurvivesPreElectionFaults elects on a graph that was
// damaged before the algorithm started — the common deployment reality.
func TestElectionSurvivesPreElectionFaults(t *testing.T) {
	g := graph.Torus(4, 4)
	g.RemoveNode(5)
	g.RemoveEdge(0, 1)
	if !g.Connected() {
		t.Fatal("setup: graph disconnected")
	}
	tr := election.New(g, 9)
	if _, ok := tr.Run(100000*15, 3*15+10); !ok {
		t.Fatalf("no leader on pre-damaged graph (remaining=%d phases=%d)", tr.Remaining(), tr.Phases)
	}
}
