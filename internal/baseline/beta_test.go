package baseline

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

func TestNewBetaDeadRoot(t *testing.T) {
	g := graph.Path(3)
	g.RemoveNode(0)
	if _, err := NewBeta(g, 0); err == nil {
		t.Fatal("dead root accepted")
	}
}

func TestPulseSucceedsOnIntactTree(t *testing.T) {
	g := graph.Grid(3, 3)
	b, err := NewBeta(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.RunPulses(10); got != 10 {
		t.Fatalf("pulses = %d", got)
	}
	if b.Rounds != 10*2*4 { // depth of 3x3 grid from corner = 4
		t.Fatalf("rounds = %d", b.Rounds)
	}
}

func TestCriticalNodesPathIsThetaN(t *testing.T) {
	g := graph.Path(20)
	b, err := NewBeta(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// On a path rooted at one end, every node except the far leaf is
	// internal: 19 critical nodes.
	if got := len(b.CriticalNodes()); got != 19 {
		t.Fatalf("critical nodes = %d, want 19", got)
	}
}

func TestCriticalNodesStarIsConstant(t *testing.T) {
	g := graph.Star(20)
	b, err := NewBeta(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b.CriticalNodes()); got != 1 {
		t.Fatalf("critical nodes = %d, want 1 (the hub)", got)
	}
}

func TestInternalNodeFailureBreaksPulse(t *testing.T) {
	g := graph.Path(10)
	b, err := NewBeta(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Pulse()
	g.RemoveNode(5) // internal node dies
	if err := b.Pulse(); err == nil {
		t.Fatal("pulse succeeded with a broken tree")
	}
	if b.Pulses != 1 {
		t.Fatalf("pulses = %d", b.Pulses)
	}
}

func TestTreeEdgeFailureBreaksPulse(t *testing.T) {
	g := graph.Cycle(8)
	b, err := NewBeta(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Remove a tree edge: the non-tree cycle edge cannot save the β
	// synchronizer, unlike a 0-sensitive algorithm.
	broken := false
	for v, p := range b.Parent {
		if v != b.Root && p != graph.Unreachable {
			g.RemoveEdge(v, p)
			broken = true
			break
		}
	}
	if !broken {
		t.Fatal("no tree edge found")
	}
	if g.Connected() == false {
		t.Fatal("test setup: cycle should stay connected after one removal")
	}
	if err := b.Pulse(); err == nil {
		t.Fatal("pulse succeeded despite tree edge loss on a still-connected graph")
	}
}

func TestLeafFailureDoesNotBreakPulse(t *testing.T) {
	g := graph.Star(6)
	b, err := NewBeta(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.RemoveNode(3) // a leaf dies: remaining tree intact
	if err := b.Pulse(); err != nil {
		t.Fatalf("leaf death broke the pulse: %v", err)
	}
}

func TestNonTreeEdgeFailureHarmless(t *testing.T) {
	g := graph.Complete(6)
	b, err := NewBeta(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Remove an edge not in the tree.
	tree := map[graph.Edge]bool{}
	for v, p := range b.Parent {
		if v != b.Root && p != graph.Unreachable {
			tree[graph.NormEdge(v, p)] = true
		}
	}
	for _, e := range g.Edges() {
		if !tree[e] {
			g.RemoveEdge(e.U, e.V)
			break
		}
	}
	if err := b.Pulse(); err != nil {
		t.Fatalf("non-tree edge removal broke the pulse: %v", err)
	}
}

// CriticalNodes collects the tree's internal nodes in a map; it must
// return them in ascending order, identical across rebuilds, since Go
// iterates each new map in its own order.
func TestCriticalNodesCanonical(t *testing.T) {
	// Path 0-..-19 rooted at 0: every node but the last is a parent.
	// Nineteen keys, because a map of five often iterates in sorted
	// order, and a dropped sort could then pass all five rebuilds.
	want := make([]int, 19)
	for v := range want {
		want[v] = v
	}
	for i := 0; i < 5; i++ {
		b, err := NewBeta(graph.Path(20), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.CriticalNodes(); !reflect.DeepEqual(got, want) {
			t.Fatalf("CriticalNodes() = %v, want %v", got, want)
		}
	}
}
