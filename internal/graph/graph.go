// Package graph provides the undirected-graph substrate for the FSSGA
// simulator: a mutable graph type supporting the paper's "decreasing benign
// fault" model (nodes and edges may be deleted but never added after
// construction), a library of topology generators used by the experiments,
// and centralized oracle algorithms (connectivity, BFS distances, Tarjan
// bridges, bipartiteness) against which distributed outputs are validated.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Graph is a simple undirected graph on nodes 0..Cap()-1. Nodes may be
// removed (marking them dead) and edges may be removed, but nothing may be
// added after the edge-construction phase; this matches the decreasing
// benign fault model of Pritchard & Vempala (SPAA 2006), Section 1.
//
// The zero value is an empty graph; use New to allocate nodes.
type Graph struct {
	// adj[v] lists the live neighbours of v in increasing order. Sorted
	// slices make every traversal deterministic by construction (no map
	// iteration anywhere on the simulation path) and keep membership
	// tests O(log d) via binary search. Rows hold int32 IDs, as CSR
	// snapshots do. Every read of a row goes through row.
	//
	// A graph built by fromCSR is a view of that snapshot until its
	// first mutation: base is set, adj is nil, and alive is base's mask,
	// so set-up copies nothing. The first mutation that changes the
	// graph carves rows and a mask of its own (own) and clears base.
	base   *CSR
	adj    [][]int32
	alive  []bool // len Cap(); while base is set, base's own mask
	nAlive int
	mAlive int
	sealed bool

	// version counts topology mutations; the lazily built CSR snapshot
	// (see csr.go) is cached until the versions diverge.
	version    uint64
	csr        *CSR
	csrVersion uint64
}

// New returns a graph with n live nodes, numbered 0..n-1, and no edges.
// It panics if n is negative or above math.MaxInt32, the largest node ID
// a row or a CSR snapshot holds.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: at most %d nodes, got %d", math.MaxInt32, n))
	}
	g := &Graph{
		adj:    make([][]int32, n),
		alive:  make([]bool, n),
		nAlive: n,
	}
	for i := range g.alive {
		g.alive[i] = true
	}
	return g
}

// Cap returns the number of node slots ever allocated, including dead nodes.
// Valid node IDs are 0..Cap()-1.
func (g *Graph) Cap() int { return len(g.alive) }

// NumNodes returns the number of live nodes.
func (g *Graph) NumNodes() int { return g.nAlive }

// NumEdges returns the number of live edges.
func (g *Graph) NumEdges() int { return g.mAlive }

// Alive reports whether node v exists and has not been removed.
func (g *Graph) Alive(v int) bool {
	return v >= 0 && v < len(g.alive) && g.alive[v]
}

// AddEdge inserts the undirected edge {u, v}. It panics on self-loops, dead
// or out-of-range endpoints, and after Seal has been called: in the fault
// model the topology only ever shrinks once the system starts.
// Adding an existing edge is a no-op.
func (g *Graph) AddEdge(u, v int) {
	if g.sealed {
		panic("graph: AddEdge after Seal (decreasing fault model forbids growth)")
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if !g.Alive(u) || !g.Alive(v) {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) with dead or out-of-range endpoint", u, v))
	}
	if g.base != nil {
		if g.HasEdge(u, v) {
			return
		}
		g.own()
	}
	var inserted bool
	if g.adj[u], inserted = insertSorted(g.adj[u], int32(v)); !inserted {
		return
	}
	g.adj[v], _ = insertSorted(g.adj[v], int32(u))
	g.mAlive++
	g.version++
}

// Seal marks the construction phase finished. After Seal, AddEdge panics
// while RemoveEdge and RemoveNode remain available (faults only decrease).
func (g *Graph) Seal() { g.sealed = true }

// Sealed reports whether Seal has been called.
func (g *Graph) Sealed() bool { return g.sealed }

// HasEdge reports whether the live edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if !g.Alive(u) || !g.Alive(v) {
		return false
	}
	_, found := slices.BinarySearch(g.row(u), int32(v))
	return found
}

// RemoveEdge deletes the edge {u, v} if present, reporting whether an edge
// was removed. It models a benign edge fault.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	if g.base != nil {
		g.own()
	}
	g.adj[u] = removeSorted(g.adj[u], int32(v))
	g.adj[v] = removeSorted(g.adj[v], int32(u))
	g.mAlive--
	g.version++
	return true
}

// RemoveNode deletes node v and all incident edges, reporting whether a live
// node was removed. It models a benign node fault.
func (g *Graph) RemoveNode(v int) bool {
	if !g.Alive(v) {
		return false
	}
	if g.base != nil {
		g.own()
	}
	for _, u := range g.adj[v] {
		g.adj[u] = removeSorted(g.adj[u], int32(v))
		g.mAlive--
	}
	g.adj[v] = nil
	g.alive[v] = false
	g.nAlive--
	g.version++
	return true
}

// Degree returns the number of live neighbours of v, or 0 if v is dead.
func (g *Graph) Degree(v int) int {
	if !g.Alive(v) {
		return 0
	}
	return len(g.row(v))
}

// row returns v's live neighbours in increasing order: a row of the
// snapshot the graph is still a view of, or one of its own. Callers
// must not modify it.
func (g *Graph) row(v int) []int32 {
	if g.base != nil {
		return g.base.Neighbors(v)
	}
	return g.adj[v]
}

// own gives a view rows and an alive mask of its own, before its first
// mutation edits them. It clones base's neighbour array once and carves
// every row out of the clone, each with its capacity clipped at its own
// end, so a later AddEdge reallocates that row alone instead of
// overwriting the next.
func (g *Graph) own() {
	c := g.base
	back := slices.Clone(c.neighbors)
	g.adj = make([][]int32, len(c.alive))
	for v := range g.adj {
		lo, hi := c.offsets[v], c.offsets[v+1]
		g.adj[v] = back[lo:hi:hi]
	}
	g.alive = slices.Clone(c.alive)
	g.base = nil
}

// MaxDegree returns the maximum degree over live nodes (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v, a := range g.alive {
		if d := len(g.row(v)); a && d > max {
			max = d
		}
	}
	return max
}

// SortedNeighbors appends the live neighbours of v, in increasing order,
// to buf and returns the extended slice. The adjacency lists are kept
// sorted, so this is a copy, not a sort; passing buf[:0] makes the hot
// path allocation-free.
func (g *Graph) SortedNeighbors(v int, buf []int) []int {
	if !g.Alive(v) {
		return buf
	}
	for _, u := range g.row(v) {
		buf = append(buf, int(u))
	}
	return buf
}

// Nodes appends the IDs of all live nodes, in increasing order, to buf.
func (g *Graph) Nodes(buf []int) []int {
	for v, a := range g.alive {
		if a {
			buf = append(buf, v)
		}
	}
	return buf
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int
}

// NormEdge returns the canonical (min, max) form of an edge.
func NormEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{u, v}
}

// Edges returns all live edges in canonical, sorted order.
func (g *Graph) Edges() []Edge {
	// Ascending v over ascending rows yields canonical sorted order
	// directly; no sort needed.
	es := make([]Edge, 0, g.mAlive)
	for v, a := range g.alive {
		if !a {
			continue
		}
		for _, u := range g.row(v) {
			if v < int(u) {
				es = append(es, Edge{v, int(u)})
			}
		}
	}
	return es
}

// Clone returns a deep copy, preserving dead nodes and the sealed flag.
// The clone of a view shares its snapshot, which neither graph ever
// writes; the clone's CSR cache starts cold all the same.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		base:   g.base,
		alive:  g.alive,
		nAlive: g.nAlive,
		mAlive: g.mAlive,
		sealed: g.sealed,
	}
	if g.base != nil {
		return c
	}
	c.adj = make([][]int32, len(g.adj))
	c.alive = slices.Clone(g.alive)
	for v, ns := range g.adj {
		if len(ns) > 0 {
			c.adj[v] = slices.Clone(ns)
		}
	}
	return c
}

// Validate checks internal invariants (symmetric adjacency, no self-loops,
// dead nodes isolated, edge count consistent) and returns the first
// violation found, or nil. It is used by property-based tests.
func (g *Graph) Validate() error {
	m2 := 0
	for v, a := range g.alive {
		ns := g.row(v)
		if !a && len(ns) != 0 {
			return fmt.Errorf("graph: dead node %d has %d neighbours", v, len(ns))
		}
		for i, u := range ns {
			if i > 0 && ns[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted at %d", v, u)
			}
			if int(u) == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if u < 0 || int(u) >= len(g.alive) {
				return fmt.Errorf("graph: node %d adjacent to out-of-range %d", v, u)
			}
			if !g.alive[u] {
				return fmt.Errorf("graph: live node %d adjacent to dead node %d", v, u)
			}
			if !g.HasEdge(int(u), v) {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", v, u)
			}
			m2++
		}
	}
	if m2 != 2*g.mAlive {
		return fmt.Errorf("graph: edge count mismatch: counted %d half-edges, recorded %d edges", m2, g.mAlive)
	}
	nA := 0
	for _, a := range g.alive {
		if a {
			nA++
		}
	}
	if nA != g.nAlive {
		return fmt.Errorf("graph: node count mismatch: counted %d, recorded %d", nA, g.nAlive)
	}
	return nil
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d cap=%d}", g.nAlive, g.mAlive, len(g.alive))
}

// insertSorted inserts x into sorted slice ns, reporting whether it was
// absent (and therefore inserted). A row carved by own has its capacity
// clipped at its own end, so a full row reallocates instead of
// overwriting the next row.
func insertSorted(ns []int32, x int32) ([]int32, bool) {
	i, found := slices.BinarySearch(ns, x)
	if found {
		return ns, false
	}
	ns = append(ns, 0)
	copy(ns[i+1:], ns[i:])
	ns[i] = x
	return ns, true
}

// removeSorted deletes x from sorted slice ns if present, in place.
func removeSorted(ns []int32, x int32) []int32 {
	i, found := slices.BinarySearch(ns, x)
	if !found {
		return ns
	}
	return append(ns[:i], ns[i+1:]...)
}
