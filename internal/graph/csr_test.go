package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

// assertCSRMatchesGraph checks that a snapshot agrees with the graph's
// own accessors on every node.
func assertCSRMatchesGraph(t *testing.T, g *Graph, c *CSR) {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatalf("CSR invalid: %v", err)
	}
	if c.Cap() != g.Cap() || c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("CSR counts %v, graph %v", c, g)
	}
	if c.MaxDegree() != g.MaxDegree() {
		t.Fatalf("CSR MaxDegree %d, graph %d", c.MaxDegree(), g.MaxDegree())
	}
	for v := 0; v < g.Cap(); v++ {
		if c.Alive(v) != g.Alive(v) {
			t.Fatalf("node %d: CSR alive %v, graph %v", v, c.Alive(v), g.Alive(v))
		}
		if c.Degree(v) != g.Degree(v) {
			t.Fatalf("node %d: CSR degree %d, graph %d", v, c.Degree(v), g.Degree(v))
		}
		want := g.SortedNeighbors(v, nil)
		got := c.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("node %d: CSR has %d neighbours, graph %d", v, len(got), len(want))
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("node %d neighbour %d: CSR %d, graph %d", v, i, got[i], want[i])
			}
		}
	}
	if got, want := c.Nodes(nil), g.Nodes(nil); len(got) != len(want) {
		t.Fatalf("CSR lists %d live nodes, graph %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("live node %d: CSR %d, graph %d", i, got[i], want[i])
			}
		}
	}
}

func TestCSRMatchesGraphRandom(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnectedGNP(40, 0.08, rng)
		// Random decreasing faults between snapshots.
		for i := 0; i < 6; i++ {
			if rng.Intn(2) == 0 {
				g.RemoveNode(rng.Intn(40))
			} else if es := g.Edges(); len(es) > 0 {
				e := es[rng.Intn(len(es))]
				g.RemoveEdge(e.U, e.V)
			}
			assertCSRMatchesGraph(t, g, g.CSR())
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickN(t, 120, 10)); err != nil {
		t.Fatal(err)
	}
}

func TestCSRCachingAndInvalidation(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	c1 := g.CSR()
	if c2 := g.CSR(); c2 != c1 {
		t.Fatal("no mutation: CSR() must return the cached snapshot")
	}

	// Every mutation path must invalidate: AddEdge, RemoveEdge, RemoveNode.
	g.AddEdge(1, 2)
	c2 := g.CSR()
	if c2 == c1 {
		t.Fatal("AddEdge did not invalidate the CSR cache")
	}
	if c2.Degree(1) != 2 {
		t.Fatalf("snapshot after AddEdge: degree(1) = %d, want 2", c2.Degree(1))
	}

	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge failed")
	}
	c3 := g.CSR()
	if c3 == c2 || c3.Degree(0) != 0 {
		t.Fatalf("RemoveEdge did not produce a fresh snapshot (deg0=%d)", c3.Degree(0))
	}

	if !g.RemoveNode(2) {
		t.Fatal("RemoveNode failed")
	}
	c4 := g.CSR()
	if c4 == c3 || c4.Alive(2) || c4.Degree(1) != 0 {
		t.Fatal("RemoveNode did not produce a fresh snapshot")
	}

	// No-op mutations must not invalidate.
	g.RemoveEdge(0, 1) // already gone
	g.RemoveNode(2)    // already dead
	g.AddEdge(0, 1)
	c5 := g.CSR()
	g.AddEdge(0, 1) // duplicate: no-op
	if g.CSR() != c5 {
		t.Fatal("no-op AddEdge invalidated the CSR cache")
	}

	// Outstanding snapshots are immutable: c1 still sees the original
	// topology even after all of the mutations above.
	if c1.Degree(0) != 1 || int(c1.Neighbors(0)[0]) != 1 || !c1.Alive(2) {
		t.Fatal("earlier snapshot was mutated by later graph operations")
	}
	if err := c1.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCSRStreamingGeneratorsMatchGraphGenerators(t *testing.T) {
	cases := []struct {
		name string
		csr  *CSR
		g    *Graph
	}{
		{"cycle/7", CycleCSR(7), Cycle(7)},
		{"cycle/3", CycleCSR(3), Cycle(3)},
		{"grid/1x1", GridCSR(1, 1), Grid(1, 1)},
		{"grid/1x9", GridCSR(1, 9), Grid(1, 9)},
		{"grid/5x8", GridCSR(5, 8), Grid(5, 8)},
		{"torus/3x3", TorusCSR(3, 3), Torus(3, 3)},
		{"torus/4x7", TorusCSR(4, 7), Torus(4, 7)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertCSRMatchesGraph(t, tc.g, tc.csr)
		})
	}
}

func TestCSRGeneratorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"cycle":      func() { CycleCSR(2) },
		"grid":       func() { GridCSR(0, 5) },
		"torus-rows": func() { TorusCSR(2, 5) },
		"torus-cols": func() { TorusCSR(5, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCSREmptyGraph(t *testing.T) {
	g := New(0)
	c := g.CSR()
	if c.Cap() != 0 || c.NumNodes() != 0 || c.NumEdges() != 0 {
		t.Fatalf("empty CSR: %v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.String() != "csr{n=0 m=0 cap=0}" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestCSRCloneIndependence(t *testing.T) {
	// A clone starts with a cold CSR cache and its snapshots are
	// independent of the original's.
	g := Cycle(5)
	c := g.CSR()
	cl := g.Clone()
	cc := cl.CSR()
	if cc == c {
		t.Fatal("clone shares the original's CSR cache")
	}
	cl.RemoveNode(0)
	if g.CSR() != c {
		t.Fatal("mutating a clone invalidated the original's cache")
	}
	assertCSRMatchesGraph(t, cl, cl.CSR())
}

// TestCSRContentHash: the content hash is a pure function of the
// topology — equal for generator-built and graph-built snapshots of the
// same topology, different after any mutation, and sensitive to the
// alive mask (a dead node changes the hash even though its neighbour
// row was already empty).
func TestCSRContentHash(t *testing.T) {
	if got, want := Torus(6, 7).CSR().ContentHash(), TorusCSR(6, 7).ContentHash(); got != want {
		t.Fatalf("graph-built torus hashes %x, streaming-built %x", got, want)
	}
	if Cycle(12).CSR().ContentHash() != CycleCSR(12).ContentHash() {
		t.Fatal("cycle hash differs between builders")
	}
	if Cycle(12).CSR().ContentHash() == Cycle(13).CSR().ContentHash() {
		t.Fatal("different cycles hash equal")
	}

	g := Grid(4, 4)
	h0 := g.CSR().ContentHash()
	if g.CSR().ContentHash() != h0 {
		t.Fatal("hash not stable across repeated snapshots")
	}
	g.RemoveEdge(0, 1)
	h1 := g.CSR().ContentHash()
	if h1 == h0 {
		t.Fatal("edge removal did not change the hash")
	}
	g.RemoveNode(5)
	if g.CSR().ContentHash() == h1 {
		t.Fatal("node removal did not change the hash")
	}

	// Isolated-but-alive differs from dead at the same adjacency.
	a := New(3)
	a.AddEdge(0, 1)
	b := New(3)
	b.AddEdge(0, 1)
	b.RemoveNode(2)
	if a.CSR().ContentHash() == b.CSR().ContentHash() {
		t.Fatal("alive mask not part of the hash")
	}
}

// TestCSRContentHashPinned pins the hash values themselves: checkpoints
// store them as TopoHash, so the function may be memoized but never
// changed without a checkpoint format version bump.
func TestCSRContentHashPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *CSR
		want uint64
	}{
		{"TorusCSR(4,4)", TorusCSR(4, 4), 0x117bf31af0cd7856},
		{"Grid(3,3).CSR()", Grid(3, 3).CSR(), 0xcb5981fd97ae0be8},
		{"TorusCSR(1024,1024)", TorusCSR(1024, 1024), 0xe4c426eafe21f92a},
	} {
		for i := 0; i < 2; i++ { // computed, then memoized
			if got := tc.c.ContentHash(); got != tc.want {
				t.Errorf("%s: call %d hashes %016x, want %016x", tc.name, i+1, got, tc.want)
			}
		}
	}
}

// TestCSRContentHashSensitivity: on small generated graphs, every
// single-node and every single-edge deletion yields its own hash, and
// every streaming generator hashes equal to its mutable-graph twin.
func TestCSRContentHashSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"Cycle(12)", Cycle(12)},
		{"Grid(4,5)", Grid(4, 5)},
		{"Torus(4,5)", Torus(4, 5)},
		{"PLaw(16,3,2,1)", PLaw(16, 3, 2, 1)},
		{"RandomGNP(20,0.3)", RandomGNP(20, 0.3, rng)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seen := map[uint64]string{tc.g.CSR().ContentHash(): "the graph"}
			distinct := func(what string, g *Graph) {
				h := g.CSR().ContentHash()
				if prev, ok := seen[h]; ok {
					t.Fatalf("%s hashes %016x, as %s does", what, h, prev)
				}
				seen[h] = what
			}
			for _, v := range tc.g.Nodes(nil) {
				g := tc.g.Clone()
				g.RemoveNode(v)
				distinct(fmt.Sprintf("deleting node %d", v), g)
			}
			for _, e := range tc.g.Edges() {
				g := tc.g.Clone()
				g.RemoveEdge(e.U, e.V)
				distinct(fmt.Sprintf("deleting edge %v", e), g)
			}
		})
	}
	for _, tc := range []struct {
		name            string
		stream, mutable *CSR
	}{
		{"CycleCSR(13)", CycleCSR(13), Cycle(13).CSR()},
		{"GridCSR(3,7)", GridCSR(3, 7), Grid(3, 7).CSR()},
		{"GridCSR(1,5)", GridCSR(1, 5), Grid(1, 5).CSR()},
		{"TorusCSR(5,3)", TorusCSR(5, 3), Torus(5, 3).CSR()},
		{"PLawCSR(16,3,2,1)", PLawCSR(16, 3, 2, 1), PLaw(16, 3, 2, 1).CSR()},
	} {
		if got, want := tc.stream.ContentHash(), tc.mutable.ContentHash(); got != want {
			t.Errorf("%s hashes %016x, its mutable-graph twin %016x", tc.name, got, want)
		}
	}
}

// BenchmarkContentHash times the hash pass alone on the end-to-end
// benchmark's two million-node topologies (the power-law one at seed 1);
// bytes are those of the offset and neighbour arrays. Neither snapshot
// has a dead node, so the alive mask is not read.
func BenchmarkContentHash(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    *CSR
	}{
		{"TorusCSR(1024,1024)", TorusCSR(1024, 1024)},
		{"PLawCSR(16384,64,4,1)", PLawCSR(16384, 64, 4, 1)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(4 * (len(tc.c.offsets) + len(tc.c.neighbors))))
			var h uint64
			for i := 0; i < b.N; i++ {
				h += tc.c.contentHash()
			}
			hashSink = h
		})
	}
}

var hashSink uint64

// TestCSRContentHashConcurrent: concurrent first calls on one fresh
// snapshot agree (run under -race to check the memoization).
func TestCSRContentHashConcurrent(t *testing.T) {
	c := TorusCSR(64, 64)
	want := c.contentHash()
	got := make([]uint64, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.ContentHash()
		}()
	}
	wg.Wait()
	for i, h := range got {
		if h != want {
			t.Errorf("goroutine %d: hash %016x, want %016x", i, h, want)
		}
	}
}
