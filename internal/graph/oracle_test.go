package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestConnected(t *testing.T) {
	g := Path(5)
	if !g.Connected() {
		t.Fatal("path connected")
	}
	g.RemoveEdge(2, 3)
	if g.Connected() {
		t.Fatal("split path still connected")
	}
	g2 := New(3) // no edges
	if g2.Connected() {
		t.Fatal("3 isolated nodes connected")
	}
	g3 := New(1)
	if !g3.Connected() {
		t.Fatal("single node should be connected")
	}
}

func TestComponents(t *testing.T) {
	g := Path(6)
	g.RemoveEdge(1, 2)
	g.RemoveEdge(3, 4)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	want := [][]int{{0, 1}, {2, 3}, {4, 5}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("components = %v", comps)
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("components = %v, want %v", comps, want)
			}
		}
	}
}

func TestComponentOf(t *testing.T) {
	g := Path(6)
	g.RemoveEdge(2, 3)
	c := g.ComponentOf(4)
	if len(c) != 3 || c[0] != 3 || c[1] != 4 || c[2] != 5 {
		t.Fatalf("ComponentOf(4) = %v", c)
	}
	g.RemoveNode(1)
	if g.ComponentOf(1) != nil {
		t.Fatal("dead node should have nil component")
	}
}

func TestBFSDistancesSingleSource(t *testing.T) {
	g := Path(5)
	d := g.BFSDistances(0)
	for v := 0; v < 5; v++ {
		if d[v] != v {
			t.Fatalf("dist[%d] = %d, want %d", v, d[v], v)
		}
	}
}

func TestBFSDistancesMultiSource(t *testing.T) {
	g := Path(7)
	d := g.BFSDistances(0, 6)
	want := []int{0, 1, 2, 3, 2, 1, 0}
	for v := range want {
		if d[v] != want[v] {
			t.Fatalf("dist = %v, want %v", d, want)
		}
	}
}

func TestBFSDistancesUnreachable(t *testing.T) {
	g := Path(5)
	g.RemoveEdge(2, 3)
	d := g.BFSDistances(0)
	if d[3] != Unreachable || d[4] != Unreachable {
		t.Fatalf("dist = %v", d)
	}
	// Dead source ignored.
	g.RemoveNode(0)
	d = g.BFSDistances(0)
	for v := 0; v < 5; v++ {
		if d[v] != Unreachable {
			t.Fatalf("dist from dead source = %v", d)
		}
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := Cycle(8)
	if g.Eccentricity(0) != 4 {
		t.Fatalf("ecc = %d", g.Eccentricity(0))
	}
	if g.Diameter() != 4 {
		t.Fatalf("diameter = %d", g.Diameter())
	}
	g.RemoveEdge(0, 1)
	if g.Diameter() != 7 { // now a path
		t.Fatalf("path diameter = %d", g.Diameter())
	}
	g.RemoveNode(4)
	if g.Diameter() != Unreachable {
		t.Fatal("disconnected diameter should be Unreachable")
	}
}

func TestBridgesPath(t *testing.T) {
	g := Path(5)
	bs := g.Bridges()
	if len(bs) != 4 {
		t.Fatalf("bridges = %v", bs)
	}
	for i, b := range bs {
		if b != (Edge{i, i + 1}) {
			t.Fatalf("bridges = %v", bs)
		}
	}
}

func TestBridgesCycleNone(t *testing.T) {
	if bs := Cycle(10).Bridges(); len(bs) != 0 {
		t.Fatalf("cycle bridges = %v", bs)
	}
}

func TestBridgesBarbell(t *testing.T) {
	g := Barbell(4, 2)
	bs := g.Bridges()
	if len(bs) != 2 {
		t.Fatalf("bridges = %v", bs)
	}
	for _, b := range bs {
		if !g.IsBridge(b.U, b.V) {
			t.Fatalf("IsBridge disagrees on %v", b)
		}
	}
	if g.IsBridge(0, 1) { // clique edge
		t.Fatal("clique edge is not a bridge")
	}
	if g.IsBridge(0, 99) { // nonexistent
		t.Fatal("nonexistent edge is not a bridge")
	}
}

// Property: an edge is a bridge iff removing it increases the number of
// connected components. Cross-validates Tarjan against the definition.
func TestBridgesMatchDefinition(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		g := RandomConnectedGNP(n, 0.12, rng)
		bridgeSet := make(map[Edge]bool)
		for _, b := range g.Bridges() {
			bridgeSet[b] = true
		}
		for _, e := range g.Edges() {
			h := g.Clone()
			h.RemoveEdge(e.U, e.V)
			disconnects := !h.Connected()
			if disconnects != bridgeSet[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickN(t, 126, 30)); err != nil {
		t.Fatal(err)
	}
}

func TestBridgesMultiComponent(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1) // component A: single bridge
	g.AddEdge(2, 3) // component B: triangle, no bridges
	g.AddEdge(3, 4)
	g.AddEdge(4, 2)
	bs := g.Bridges()
	if len(bs) != 1 || bs[0] != (Edge{0, 1}) {
		t.Fatalf("bridges = %v", bs)
	}
}

func TestTwoColor(t *testing.T) {
	g := Cycle(6)
	colors, ok := g.TwoColor()
	if !ok {
		t.Fatal("even cycle is bipartite")
	}
	for _, e := range g.Edges() {
		if colors[e.U] == colors[e.V] {
			t.Fatal("adjacent nodes same colour")
		}
	}
	if _, ok := Cycle(7).TwoColor(); ok {
		t.Fatal("odd cycle is not bipartite")
	}
}

func TestTwoColorMultiComponent(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2) // odd triangle in second component
	if g.IsBipartite() {
		t.Fatal("graph with triangle is not bipartite")
	}
	g2 := New(4)
	g2.AddEdge(0, 1)
	g2.AddEdge(2, 3)
	if !g2.IsBipartite() {
		t.Fatal("two disjoint edges are bipartite")
	}
}

// Property: BFSDistances satisfies the triangle property along edges:
// |d(u) - d(v)| <= 1 for every edge when both are reachable.
func TestBFSDistanceLipschitz(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		g := RandomConnectedGNP(n, 0.1, rng)
		src := rng.Intn(n)
		d := g.BFSDistances(src)
		for _, e := range g.Edges() {
			du, dv := d[e.U], d[e.V]
			if du == Unreachable || dv == Unreachable {
				return false // connected graph: everything reachable
			}
			if du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		return d[src] == 0
	}
	if err := quick.Check(prop, testutil.QuickN(t, 127, 40)); err != nil {
		t.Fatal(err)
	}
}

func TestSpanningTree(t *testing.T) {
	g := Grid(3, 3)
	par := g.SpanningTree(0)
	if par[0] != 0 {
		t.Fatal("root parent must be itself")
	}
	// Every node reaches the root by following parents, with tree edges real.
	for v := 0; v < 9; v++ {
		seen := 0
		for u := v; u != 0; u = par[u] {
			if par[u] == Unreachable || !g.HasEdge(u, par[u]) {
				t.Fatalf("bad parent chain at %d", v)
			}
			if seen++; seen > 9 {
				t.Fatalf("parent cycle at %d", v)
			}
		}
	}
	// Unreachable nodes flagged.
	h := Path(4)
	h.RemoveEdge(1, 2)
	par = h.SpanningTree(0)
	if par[2] != Unreachable || par[3] != Unreachable {
		t.Fatalf("unreachable parents = %v", par)
	}
	// Dead root.
	h.RemoveNode(0)
	par = h.SpanningTree(0)
	for _, p := range par {
		if p != Unreachable {
			t.Fatal("dead root should yield all-unreachable")
		}
	}
}

// The oracle traversals are functions of the graph alone: two
// structurally identical graphs built independently, with the same
// nodes removed, must give identical connectivity, components,
// component of a node and BFS distances, and each component lists its
// nodes in ascending order.
func TestOracleDeterministicAcrossRebuilds(t *testing.T) {
	build := func() *Graph {
		rng := rand.New(rand.NewSource(99))
		g := RandomConnectedGNP(40, 0.1, rng)
		g.RemoveNode(7)
		g.RemoveNode(13)
		return g
	}
	ref := build()
	refConn := ref.Connected()
	refComps := ref.Components()
	refComp := ref.ComponentOf(0)
	refDist := ref.BFSDistances(0)
	for _, comp := range refComps {
		if !sort.IntsAreSorted(comp) {
			t.Fatalf("component not sorted: %v", comp)
		}
	}
	for i := 0; i < 10; i++ {
		g := build()
		if g.Connected() != refConn {
			t.Fatal("Connected differs across rebuilds")
		}
		if got := g.Components(); !reflect.DeepEqual(got, refComps) {
			t.Fatalf("Components differ across rebuilds:\n%v\n%v", got, refComps)
		}
		if got := g.ComponentOf(0); !reflect.DeepEqual(got, refComp) {
			t.Fatalf("ComponentOf differs across rebuilds:\n%v\n%v", got, refComp)
		}
		if got := g.BFSDistances(0); !reflect.DeepEqual(got, refDist) {
			t.Fatalf("BFSDistances differ across rebuilds:\n%v\n%v", got, refDist)
		}
	}
}
