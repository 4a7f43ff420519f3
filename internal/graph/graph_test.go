package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestNewEmpty(t *testing.T) {
	g := New(0)
	if g.NumNodes() != 0 || g.NumEdges() != 0 || g.Cap() != 0 {
		t.Fatalf("empty graph wrong: %v", g)
	}
	if !g.Connected() {
		t.Fatal("empty graph should count as connected")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) should panic")
		}
	}()
	New(-1)
}

// TestNewAboveInt32Panics: rows and snapshots hold int32 IDs, so New
// refuses a node count above math.MaxInt32 before allocating anything.
func TestNewAboveInt32Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(math.MaxInt32 + 1) should panic")
		}
	}()
	n := int64(math.MaxInt32) + 1
	New(int(n))
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) missing or asymmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge (0,2)")
	}
	g.AddEdge(0, 1) // duplicate is a no-op
	if g.NumEdges() != 2 {
		t.Fatalf("duplicate AddEdge changed count to %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop should panic")
		}
	}()
	New(2).AddEdge(1, 1)
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range AddEdge should panic")
		}
	}()
	New(2).AddEdge(0, 5)
}

func TestSealForbidsGrowth(t *testing.T) {
	g := Path(3)
	g.Seal()
	if !g.Sealed() {
		t.Fatal("Sealed() false after Seal")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge after Seal should panic")
		}
	}()
	g.AddEdge(0, 2)
}

func TestSealAllowsFaults(t *testing.T) {
	g := Cycle(5)
	g.Seal()
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge failed after Seal")
	}
	if !g.RemoveNode(3) {
		t.Fatal("RemoveNode failed after Seal")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := Complete(4)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge(0,1) reported false")
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edge survived removal")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("second removal reported true")
	}
	if g.NumEdges() != 5 {
		t.Fatalf("edges = %d, want 5", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNode(t *testing.T) {
	g := Star(5) // centre 0 with 4 leaves
	if !g.RemoveNode(0) {
		t.Fatal("RemoveNode(0) reported false")
	}
	if g.Alive(0) {
		t.Fatal("node 0 still alive")
	}
	if g.NumNodes() != 4 || g.NumEdges() != 0 {
		t.Fatalf("after hub removal: n=%d m=%d, want 4, 0", g.NumNodes(), g.NumEdges())
	}
	if g.RemoveNode(0) {
		t.Fatal("double removal reported true")
	}
	if g.Degree(0) != 0 {
		t.Fatal("dead node has nonzero degree")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNodeIsolatesIt(t *testing.T) {
	g := Complete(5)
	g.RemoveNode(2)
	for v := 0; v < 5; v++ {
		if g.HasEdge(v, 2) || g.HasEdge(2, v) {
			t.Fatalf("edge to dead node 2 from %d", v)
		}
	}
	if g.NumEdges() != 6 { // K4 remains
		t.Fatalf("edges = %d, want 6", g.NumEdges())
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := Star(6)
	if g.Degree(0) != 5 {
		t.Fatalf("hub degree = %d, want 5", g.Degree(0))
	}
	if g.Degree(3) != 1 {
		t.Fatalf("leaf degree = %d, want 1", g.Degree(3))
	}
	ns := g.SortedNeighbors(0, nil)
	want := []int{1, 2, 3, 4, 5}
	if len(ns) != len(want) {
		t.Fatalf("neighbors = %v, want %v", ns, want)
	}
	for i := range ns {
		if ns[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", ns, want)
		}
	}
	if g.MaxDegree() != 5 {
		t.Fatalf("MaxDegree = %d, want 5", g.MaxDegree())
	}
}

func TestNeighborsReusesBuffer(t *testing.T) {
	g := Path(4)
	buf := make([]int, 0, 8)
	buf = g.SortedNeighbors(1, buf)
	if len(buf) != 2 {
		t.Fatalf("len = %d, want 2", len(buf))
	}
	buf = g.SortedNeighbors(2, buf[:0])
	if len(buf) != 2 {
		t.Fatalf("reuse len = %d, want 2", len(buf))
	}
}

func TestNodesListsLiveOnly(t *testing.T) {
	g := Path(5)
	g.RemoveNode(2)
	nodes := g.Nodes(nil)
	want := []int{0, 1, 3, 4}
	if len(nodes) != len(want) {
		t.Fatalf("nodes = %v", nodes)
	}
	for i := range nodes {
		if nodes[i] != want[i] {
			t.Fatalf("nodes = %v, want %v", nodes, want)
		}
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(2, 0)
	es := g.Edges()
	want := []Edge{{0, 2}, {1, 3}}
	if len(es) != 2 || es[0] != want[0] || es[1] != want[1] {
		t.Fatalf("edges = %v, want %v", es, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Cycle(6)
	g.Seal()
	c := g.Clone()
	c.RemoveNode(0)
	if !g.Alive(0) || g.NumEdges() != 6 {
		t.Fatal("mutating clone affected original")
	}
	if !c.Sealed() {
		t.Fatal("clone lost sealed flag")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNormEdge(t *testing.T) {
	if NormEdge(5, 2) != (Edge{2, 5}) {
		t.Fatal("NormEdge did not canonicalize")
	}
	if NormEdge(2, 5) != (Edge{2, 5}) {
		t.Fatal("NormEdge broke already-canonical edge")
	}
}

// Property: any sequence of random faults keeps the graph valid, and edge
// and node counts never increase.
func TestFaultSequenceInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnectedGNP(30, 0.15, rng)
		g.Seal()
		prevN, prevM := g.NumNodes(), g.NumEdges()
		for i := 0; i < 40; i++ {
			if rng.Intn(2) == 0 {
				g.RemoveNode(rng.Intn(g.Cap()))
			} else {
				g.RemoveEdge(rng.Intn(g.Cap()), rng.Intn(g.Cap()))
			}
			if g.NumNodes() > prevN || g.NumEdges() > prevM {
				return false
			}
			prevN, prevM = g.NumNodes(), g.NumEdges()
			if g.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickN(t, 125, 25)); err != nil {
		t.Fatal(err)
	}
}

func TestStringSummary(t *testing.T) {
	g := Path(3)
	if got := g.String(); got != "graph{n=3 m=2 cap=3}" {
		t.Fatalf("String() = %q", got)
	}
}
