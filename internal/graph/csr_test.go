package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// The references below build each bulk-path topology edge by edge with
// AddEdge, so the twin tests compare every generator with code that
// shares nothing with the CSR writers or fromCSR.

func cycleByEdges(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func torusByEdges(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(id(r, c), id(r, (c+1)%cols))
			g.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return g
}

func hypercubeByEdges(d int) *Graph {
	n := 1 << uint(d)
	g := New(n)
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			if u := v ^ (1 << uint(b)); v < u {
				g.AddEdge(v, u)
			}
		}
	}
	return g
}

// plawByEdges replicates plawBase's block and closes the hub ring with
// AddEdge; only the block itself is shared with PLawCSR.
func plawByEdges(block, copies, epn int, seed int64) *Graph {
	base := plawBase(block, epn, seed)
	g := New(block * copies)
	for c := 0; c < copies; c++ {
		shift := c * block
		for v, row := range base {
			for _, u := range row {
				if int32(v) < u {
					g.AddEdge(shift+v, shift+int(u))
				}
			}
		}
	}
	for c := 0; c+1 < copies; c++ {
		g.AddEdge(c*block, (c+1)*block)
	}
	if copies >= 3 {
		g.AddEdge(0, (copies-1)*block)
	}
	return g
}

// assertGeneratorPair checks a streaming generator's snapshot and the
// mutable graph carved from the same generator against a reference
// built edge by edge.
func assertGeneratorPair(t *testing.T, c *CSR, g, ref *Graph) {
	t.Helper()
	assertCSRMatchesGraph(t, ref, c)
	assertCSRMatchesGraph(t, g, ref.CSR())
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCSRStreamingGeneratorsMatchGraphGenerators(t *testing.T) {
	cases := []struct {
		name   string
		csr    *CSR
		g, ref *Graph
	}{
		{"cycle/7", CycleCSR(7), Cycle(7), cycleByEdges(7)},
		{"cycle/3", CycleCSR(3), Cycle(3), cycleByEdges(3)},
		{"grid/1x1", GridCSR(1, 1), Grid(1, 1), Grid(1, 1)},
		{"grid/1x9", GridCSR(1, 9), Grid(1, 9), Grid(1, 9)},
		{"grid/5x8", GridCSR(5, 8), Grid(5, 8), Grid(5, 8)},
		{"torus/3x3", TorusCSR(3, 3), Torus(3, 3), torusByEdges(3, 3)},
		{"torus/4x7", TorusCSR(4, 7), Torus(4, 7), torusByEdges(4, 7)},
		{"torus/6x3", TorusCSR(6, 3), Torus(6, 3), torusByEdges(6, 3)},
		{"hypercube/1", HypercubeCSR(1), Hypercube(1), hypercubeByEdges(1)},
		{"hypercube/2", HypercubeCSR(2), Hypercube(2), hypercubeByEdges(2)},
		{"hypercube/5", HypercubeCSR(5), Hypercube(5), hypercubeByEdges(5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertGeneratorPair(t, tc.csr, tc.g, tc.ref)
		})
	}
}

func TestCSRGeneratorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"cycle":        func() { CycleCSR(2) },
		"grid":         func() { GridCSR(0, 5) },
		"torus-rows":   func() { TorusCSR(2, 5) },
		"torus-cols":   func() { TorusCSR(5, 2) },
		"hypercube-0":  func() { HypercubeCSR(0) },
		"hypercube-25": func() { HypercubeCSR(25) },
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
	if got, want := torusByEdges(6, 7).CSR().ContentHash(), TorusCSR(6, 7).ContentHash(); got != want {
		t.Fatalf("graph-built torus hashes %x, streaming-built %x", got, want)
	}
	if cycleByEdges(12).CSR().ContentHash() != CycleCSR(12).ContentHash() {
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
		{"HypercubeCSR(4)", HypercubeCSR(4), 0x0a837dce0cf0fb68},
		{"PLawCSR(1024,4,4,1)", PLawCSR(1024, 4, 4, 1), 0xe3e714d8634f4810},
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
// every streaming generator hashes equal to the same topology built edge
// by edge.
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
		{"CycleCSR(13)", CycleCSR(13), cycleByEdges(13).CSR()},
		{"GridCSR(3,7)", GridCSR(3, 7), Grid(3, 7).CSR()},
		{"GridCSR(1,5)", GridCSR(1, 5), Grid(1, 5).CSR()},
		{"TorusCSR(5,3)", TorusCSR(5, 3), torusByEdges(5, 3).CSR()},
		{"HypercubeCSR(3)", HypercubeCSR(3), hypercubeByEdges(3).CSR()},
		{"PLawCSR(16,3,2,1)", PLawCSR(16, 3, 2, 1), plawByEdges(16, 3, 2, 1).CSR()},
	} {
		if got, want := tc.stream.ContentHash(), tc.mutable.ContentHash(); got != want {
			t.Errorf("%s hashes %016x, its edge-by-edge twin %016x", tc.name, got, want)
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

// BenchmarkGenerate times topology set-up as the end-to-end benchmark
// pays it, a mutable generator and its first snapshot, beside the
// streaming generator that writes the same rows: the torus of bfs-torus
// and the power-law graph of census-plaw.
func BenchmarkGenerate(b *testing.B) {
	for _, tc := range []struct {
		name string
		gen  func() *CSR
	}{
		{"Torus(1024,1024).CSR()", func() *CSR { return Torus(1024, 1024).CSR() }},
		{"TorusCSR(1024,1024)", func() *CSR { return TorusCSR(1024, 1024) }},
		{"PLaw(32768,2,4,4).CSR()", func() *CSR { return PLaw(32768, 2, 4, 4).CSR() }},
		{"PLawCSR(32768,2,4,4)", func() *CSR { return PLawCSR(32768, 2, 4, 4) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				csrSink = tc.gen()
			}
		})
	}
}

var csrSink *CSR

// TestBulkGeneratorsAllocateO1: a bulk-path generator and its first
// snapshot allocate a constant number of blocks, not one per row or per
// edge.
func TestBulkGeneratorsAllocateO1(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation perturbs allocation counts")
	}
	for _, tc := range []struct {
		name string
		gen  func() *CSR
	}{
		{"Torus(64,64).CSR()", func() *CSR { return Torus(64, 64).CSR() }},
		{"Cycle(4096).CSR()", func() *CSR { return Cycle(4096).CSR() }},
	} {
		if got := testing.AllocsPerRun(5, func() { csrSink = tc.gen() }); got > 8 {
			t.Errorf("%s: %v allocations, want at most 8", tc.name, got)
		}
	}
	stream := testing.AllocsPerRun(5, func() { csrSink = PLawCSR(256, 4, 4, 1) })
	if stream > 12 {
		t.Errorf("PLawCSR(256,4,4,1): %v allocations, want at most 12", stream)
	}
	bulk := testing.AllocsPerRun(5, func() { csrSink = PLaw(256, 4, 4, 1).CSR() })
	if bulk > stream+2 {
		t.Errorf("PLaw(256,4,4,1).CSR(): %v allocations, want at most 2 more than PLawCSR's %v", bulk, stream)
	}
}

// allocatedBytes returns the fewest bytes that f allocated in three
// runs, as runtime.MemStats.TotalAlloc counts them.
func allocatedBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

var graphSink *Graph

// TestCarvedGraphSharesItsSnapshot: a graph carved from a snapshot is a
// view of it until its first mutation. Its generator allocates no more
// than writing the snapshot does, plus the graph's own header; the first
// RemoveEdge carves rows of its own; and the snapshot keeps its hash.
func TestCarvedGraphSharesItsSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		carved func() *Graph
		stream func() *CSR
	}{
		{"Cycle(4096)", func() *Graph { return Cycle(4096) }, func() *CSR { return CycleCSR(4096) }},
		{"Torus(64,64)", func() *Graph { return Torus(64, 64) }, func() *CSR { return TorusCSR(64, 64) }},
		{"Hypercube(12)", func() *Graph { return Hypercube(12) }, func() *CSR { return HypercubeCSR(12) }},
		{"PLaw(1024,4,4,1)", func() *Graph { return PLaw(1024, 4, 4, 1) }, func() *CSR { return PLawCSR(1024, 4, 4, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The race detector's instrumentation perturbs allocations.
			if !raceEnabled {
				carved := allocatedBytes(func() { graphSink = tc.carved() })
				stream := allocatedBytes(func() { csrSink = tc.stream() })
				if carved > stream+1024 {
					t.Errorf("the generator allocates %d bytes, writing its snapshot %d", carved, stream)
				}
			}
			g := tc.carved()
			first := g.CSR()
			if g.base != first || g.adj != nil {
				t.Fatal("a fresh carved graph keeps rows of its own")
			}
			want := first.contentHash()
			e := g.Edges()[0]
			if !g.RemoveEdge(e.U, e.V) {
				t.Fatalf("RemoveEdge(%d, %d) removed nothing", e.U, e.V)
			}
			if g.base != nil || len(g.adj) != g.Cap() {
				t.Fatal("the first RemoveEdge left the graph reading its snapshot")
			}
			if got := first.contentHash(); got != want || first.ContentHash() != want {
				t.Fatalf("first snapshot hashes %016x after RemoveEdge, %016x before", got, want)
			}
			if g.HasEdge(e.U, e.V) || !first.Alive(e.U) || !csrHasEdge(first, e.U, e.V) {
				t.Fatal("RemoveEdge edited the snapshot instead of the graph's own rows")
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// absentEdge returns the first pair u < v of live nodes that g does not
// join.
func absentEdge(g *Graph) (int, int) {
	live := g.Nodes(nil)
	for i, u := range live {
		for _, v := range live[i+1:] {
			if !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	panic("graph: no absent edge")
}

// assertSameReads checks every read of g against the same read of twin.
func assertSameReads(t *testing.T, g, twin *Graph) {
	t.Helper()
	if g.Cap() != twin.Cap() || g.NumNodes() != twin.NumNodes() || g.NumEdges() != twin.NumEdges() {
		t.Fatalf("counts %v, twin's %v", g, twin)
	}
	for v := -1; v <= g.Cap(); v++ {
		if g.Alive(v) != twin.Alive(v) || g.Degree(v) != twin.Degree(v) {
			t.Fatalf("node %d: alive %v degree %d, twin's %v %d", v, g.Alive(v), g.Degree(v), twin.Alive(v), twin.Degree(v))
		}
		if got, want := g.SortedNeighbors(v, nil), twin.SortedNeighbors(v, nil); !slices.Equal(got, want) {
			t.Fatalf("node %d: neighbours %v, twin's %v", v, got, want)
		}
		for u := -1; u <= g.Cap(); u++ {
			if g.HasEdge(u, v) != twin.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d, %d) = %v, twin's %v", u, v, g.HasEdge(u, v), twin.HasEdge(u, v))
			}
		}
		if g.Alive(v) && !slices.Equal(g.BFSDistances(v), twin.BFSDistances(v)) {
			t.Fatalf("BFSDistances(%d) differ from the twin's", v)
		}
	}
	if !slices.Equal(g.Nodes(nil), twin.Nodes(nil)) || !slices.Equal(g.Edges(), twin.Edges()) {
		t.Fatalf("nodes or edges differ from the twin's: %v against %v", g.Edges(), twin.Edges())
	}
	if g.MaxDegree() != twin.MaxDegree() || g.String() != twin.String() {
		t.Fatalf("MaxDegree %d, %s; twin's %d, %s", g.MaxDegree(), g, twin.MaxDegree(), twin)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Connected() != twin.Connected() || g.Diameter() != twin.Diameter() {
		t.Fatalf("Connected %v Diameter %d, twin's %v %d", g.Connected(), g.Diameter(), twin.Connected(), twin.Diameter())
	}
	if got, want := g.Components(), twin.Components(); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("components %v, twin's %v", got, want)
	}
	if got, want := g.Bridges(), twin.Bridges(); !slices.Equal(got, want) {
		t.Fatalf("bridges %v, twin's %v", got, want)
	}
	gc, gok := g.TwoColor()
	wc, wok := twin.TwoColor()
	if gok != wok || !slices.Equal(gc, wc) {
		t.Fatalf("TwoColor %v %v, twin's %v %v", gc, gok, wc, wok)
	}
}

// TestCarvedGraphReadsMatchTwins: each read of a carved graph agrees
// with its twin built edge by edge, while it reads its snapshot (and
// through a clone that shares the snapshot), after mutations that change
// nothing, which must leave it reading the snapshot, and after one
// mutation of each kind, which carves its rows.
func TestCarvedGraphReadsMatchTwins(t *testing.T) {
	gens := []struct {
		name         string
		carved, twin func() *Graph
	}{
		{"Cycle(9)", func() *Graph { return Cycle(9) }, func() *Graph { return cycleByEdges(9) }},
		{"Torus(4,5)", func() *Graph { return Torus(4, 5) }, func() *Graph { return torusByEdges(4, 5) }},
		{"Hypercube(4)", func() *Graph { return Hypercube(4) }, func() *Graph { return hypercubeByEdges(4) }},
		{"PLaw(16,3,2,1)", func() *Graph { return PLaw(16, 3, 2, 1) }, func() *Graph { return plawByEdges(16, 3, 2, 1) }},
	}
	mutations := []struct {
		name   string
		mutate func(g, twin *Graph)
	}{
		{"AddEdge", func(g, twin *Graph) {
			u, v := absentEdge(twin)
			g.AddEdge(u, v)
			twin.AddEdge(u, v)
		}},
		{"RemoveEdge", func(g, twin *Graph) {
			e := twin.Edges()[twin.NumEdges()/2]
			g.RemoveEdge(e.U, e.V)
			twin.RemoveEdge(e.U, e.V)
		}},
		{"RemoveNode", func(g, twin *Graph) {
			v := twin.Cap() / 2
			g.RemoveNode(v)
			twin.RemoveNode(v)
		}},
	}
	for _, gen := range gens {
		for _, m := range mutations {
			t.Run(gen.name+"/"+m.name, func(t *testing.T) {
				g, twin := gen.carved(), gen.twin()
				assertSameReads(t, g, twin)
				cl := g.Clone()
				if cl.base != g.base || cl.CSR() == g.CSR() {
					t.Fatal("the clone of a carved graph does not share its snapshot, or shares its cache")
				}
				assertSameReads(t, cl, twin)
				e := g.Edges()[0]
				u, v := absentEdge(g)
				g.AddEdge(e.U, e.V)
				g.RemoveEdge(u, v)
				g.RemoveNode(-1)
				g.RemoveNode(g.Cap())
				if g.base == nil {
					t.Fatal("a mutation that changed nothing carved the rows")
				}
				m.mutate(g, twin)
				if g.base != nil {
					t.Fatalf("%s left the graph reading its snapshot", m.name)
				}
				assertSameReads(t, g, twin)
			})
		}
	}
}

// TestCarvedGraphConcurrentReaders: eight goroutines read one unmutated
// carved graph at once, and each clones it and mutates its clone. Reads
// never write the shared graph or its snapshot, which -race checks.
func TestCarvedGraphConcurrentReaders(t *testing.T) {
	g, twin := Torus(16, 16), torusByEdges(16, 16)
	first := g.CSR()
	hash := first.ContentHash()
	const readers = 8
	rows := make([][]int, readers)
	dists := make([][]int, readers)
	for i := range rows {
		rows[i] = twin.SortedNeighbors(i*31, nil)
		dists[i] = twin.BFSDistances(i * 31)
	}
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := i * 31
			if got := g.SortedNeighbors(v, nil); !slices.Equal(got, rows[i]) {
				t.Errorf("reader %d: neighbours of %d %v, want %v", i, v, got, rows[i])
			}
			if !slices.Equal(g.BFSDistances(v), dists[i]) {
				t.Errorf("reader %d: BFSDistances(%d) differ from the twin's", i, v)
			}
			if g.CSR() != first {
				t.Errorf("reader %d: CSR() built a new snapshot", i)
			}
			cl := g.Clone()
			if h := cl.CSR().ContentHash(); h != hash {
				t.Errorf("reader %d: the clone's snapshot hashes %016x, want %016x", i, h, hash)
			}
			cl.RemoveNode(v)
			if err := cl.Validate(); err != nil {
				t.Errorf("reader %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if g.base != first || g.adj != nil || g.CSR() != first {
		t.Fatal("concurrent reads carved or replaced the graph's rows")
	}
	if got := first.contentHash(); got != hash {
		t.Fatalf("the snapshot hashes %016x after the reads, %016x before", got, hash)
	}
	assertSameReads(t, g, twin)
}

// TestBulkGraphSnapshotImmutable: a graph carved from a snapshot edits
// its own rows under faults and added edges, never the snapshot, and
// stays equal to a twin built edge by edge and given the same mutations.
func TestBulkGraphSnapshotImmutable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g, twin *Graph
	}{
		{"Cycle(9)", Cycle(9), cycleByEdges(9)},
		{"Torus(4,5)", Torus(4, 5), torusByEdges(4, 5)},
		{"PLaw(16,3,2,1)", PLaw(16, 3, 2, 1), plawByEdges(16, 3, 2, 1)},
		{"Hypercube(4)", Hypercube(4), hypercubeByEdges(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, twin := tc.g, tc.twin
			first := g.CSR()
			want := first.contentHash()
			cl := g.Clone()
			e := cl.Edges()[0]
			cl.RemoveEdge(e.U, e.V)
			cl.AddEdge(absentEdge(cl))
			cl.RemoveNode(cl.Nodes(nil)[1])
			if g.CSR() != first || first.contentHash() != want || !slices.Equal(g.Edges(), twin.Edges()) {
				t.Fatal("mutating a clone changed the original or its snapshot")
			}
			rng := rand.New(rand.NewSource(1))
			for step := 0; step < 15; step++ {
				switch step % 3 {
				case 0: // AddEdge first, while every row is full
					live := g.Nodes(nil)
					for {
						u, v := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
						if u != v && !g.HasEdge(u, v) {
							g.AddEdge(u, v)
							twin.AddEdge(u, v)
							break
						}
					}
				case 1:
					es := g.Edges()
					e := es[rng.Intn(len(es))]
					g.RemoveEdge(e.U, e.V)
					twin.RemoveEdge(e.U, e.V)
				case 2:
					live := g.Nodes(nil)
					v := live[rng.Intn(len(live))]
					g.RemoveNode(v)
					twin.RemoveNode(v)
				}
			}
			if got := first.contentHash(); got != want || first.ContentHash() != want {
				t.Fatalf("first snapshot hashes %016x after the mutations, %016x before", got, want)
			}
			if err := first.Validate(); err != nil {
				t.Fatalf("first snapshot after the mutations: %v", err)
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if got, want := g.Edges(), twin.Edges(); !slices.Equal(got, want) {
				t.Fatalf("edges %v, twin's %v", got, want)
			}
			if got, want := g.CSR().ContentHash(), twin.CSR().ContentHash(); got != want {
				t.Fatalf("snapshot hashes %016x, twin's %016x", got, want)
			}
		})
	}
}

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
