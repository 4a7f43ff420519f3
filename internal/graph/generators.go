package graph

import (
	"fmt"
	"math/rand"
)

// This file contains the topology generators used throughout the
// experiments. All randomized generators take an explicit *rand.Rand so
// every experiment is reproducible from a seed.

// Path returns the path graph P_n: 0-1-2-...-(n-1).
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Cycle returns the cycle graph C_n (n >= 3), carved from CycleCSR.
func Cycle(n int) *Graph { return fromCSR(CycleCSR(n)) }

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// Star returns the star K_{1,n-1} with centre 0 and n-1 leaves.
func Star(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: Star(%d) needs n >= 2", n))
	}
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Wheel returns the wheel graph: a cycle on nodes 1..n-1 plus hub 0.
func Wheel(n int) *Graph {
	if n < 4 {
		panic(fmt.Sprintf("graph: Wheel(%d) needs n >= 4", n))
	}
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
		next := i + 1
		if next == n {
			next = 1
		}
		g.AddEdge(i, next)
	}
	return g
}

// Grid returns the rows x cols king-free grid (4-neighbour lattice).
// Node (r, c) has ID r*cols + c.
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("graph: Grid(%d, %d) needs positive dimensions", rows, cols))
	}
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Torus returns the rows x cols grid with wraparound in both dimensions,
// carved from TorusCSR. Both dimensions must be at least 3 so no
// duplicate edges arise.
func Torus(rows, cols int) *Graph { return fromCSR(TorusCSR(rows, cols)) }

// Hypercube returns the d-dimensional hypercube Q_d on 2^d nodes
// (1 <= d <= 24), carved from HypercubeCSR.
func Hypercube(d int) *Graph { return fromCSR(HypercubeCSR(d)) }

// CompleteBipartite returns K_{a,b}: parts {0..a-1} and {a..a+b-1}.
func CompleteBipartite(a, b int) *Graph {
	g := New(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			g.AddEdge(i, a+j)
		}
	}
	return g
}

// BinaryTree returns the complete binary tree on n nodes where node i has
// children 2i+1 and 2i+2 (heap numbering).
func BinaryTree(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, (i-1)/2)
	}
	return g
}

// Barbell returns two copies of K_k joined by a path of len bridge edges
// (bridge >= 1). The connecting path consists entirely of bridges, which
// makes it a canonical workload for the bridge-finding experiment (E2).
func Barbell(k, bridge int) *Graph {
	if k < 3 || bridge < 1 {
		panic(fmt.Sprintf("graph: Barbell(%d, %d) needs k >= 3, bridge >= 1", k, bridge))
	}
	n := 2*k + bridge - 1
	g := New(n)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.AddEdge(i, j)
			g.AddEdge(k+bridge-1+i, k+bridge-1+j)
		}
	}
	// Path of internal nodes k .. k+bridge-2 joining node k-1 to node
	// k+bridge-1 (the first node of the second clique).
	prev := k - 1
	for i := 0; i < bridge-1; i++ {
		g.AddEdge(prev, k+i)
		prev = k + i
	}
	g.AddEdge(prev, k+bridge-1)
	return g
}

// Lollipop returns K_k with a pendant path of tail edges attached, the
// classic worst case for random-walk hitting times.
func Lollipop(k, tail int) *Graph {
	if k < 3 || tail < 1 {
		panic(fmt.Sprintf("graph: Lollipop(%d, %d) needs k >= 3, tail >= 1", k, tail))
	}
	g := New(k + tail)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.AddEdge(i, j)
		}
	}
	prev := k - 1
	for i := 0; i < tail; i++ {
		g.AddEdge(prev, k+i)
		prev = k + i
	}
	return g
}

// Theta returns the theta graph: two hub nodes joined by three internally
// disjoint paths with the given numbers of internal nodes (each >= 1 to
// avoid parallel edges). Every edge lies on a cycle, so it has no bridges —
// the complement workload for E2.
func Theta(p1, p2, p3 int) *Graph {
	if p1 < 1 || p2 < 1 || p3 < 1 {
		panic(fmt.Sprintf("graph: Theta(%d, %d, %d) needs all path lengths >= 1", p1, p2, p3))
	}
	n := 2 + p1 + p2 + p3
	g := New(n)
	next := 2
	for _, plen := range []int{p1, p2, p3} {
		prev := 0
		for i := 0; i < plen; i++ {
			g.AddEdge(prev, next)
			prev = next
			next++
		}
		g.AddEdge(prev, 1)
	}
	return g
}

// CycleWithChords returns C_n plus `chords` random chords (non-adjacent
// pairs). Useful as a sparse bridgeless workload with tunable m.
func CycleWithChords(n, chords int, rng *rand.Rand) *Graph {
	g := Cycle(n)
	for added := 0; added < chords; {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.AddEdge(u, v)
		added++
	}
	return g
}

// RandomTree returns a uniformly random labelled tree on n nodes via a
// random Prüfer-like attachment: node i (i >= 1) attaches to a uniformly
// random earlier node. (Random recursive tree; not uniform over all labelled
// trees, but ideal as a connected sparse workload.)
func RandomTree(n int, rng *rand.Rand) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, rng.Intn(i))
	}
	return g
}

// RandomGNP returns an Erdős–Rényi G(n, p) graph. It may be disconnected.
func RandomGNP(n int, p float64, rng *rand.Rand) *Graph {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: RandomGNP p=%v out of [0,1]", p))
	}
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// RandomConnectedGNP returns G(n, p) conditioned on connectivity by first
// laying down a random recursive tree and then adding each remaining pair
// independently with probability p. All experiments that require a
// connected network use this generator.
func RandomConnectedGNP(n int, p float64, rng *rand.Rand) *Graph {
	g := RandomTree(n, rng)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !g.HasEdge(i, j) && rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// RandomBipartite returns a random bipartite graph with parts of sizes a
// and b and cross-edge probability p, plus a spanning "zigzag" path to keep
// it connected. Nodes 0..a-1 form one side, a..a+b-1 the other.
func RandomBipartite(a, b int, p float64, rng *rand.Rand) *Graph {
	if a < 1 || b < 1 {
		panic(fmt.Sprintf("graph: RandomBipartite(%d, %d) needs both parts nonempty", a, b))
	}
	g := New(a + b)
	// Connect with a zigzag: left i -> right i mod b -> left i+1 ...
	for i := 0; i < a; i++ {
		g.AddEdge(i, a+i%b)
		if i+1 < a {
			g.AddEdge(i+1, a+i%b)
		}
	}
	for j := 0; j < b; j++ {
		g.AddEdge(0, a+j) // ensure all right nodes attach to the left side
	}
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			if !g.HasEdge(i, a+j) && rng.Float64() < p {
				g.AddEdge(i, a+j)
			}
		}
	}
	return g
}

// RandomRegularish returns a graph where every node has degree ~d, built by
// d/2 random perfect-matching-ish sweeps (pairs drawn without immediate
// duplicates). The result is not exactly regular but has tightly
// concentrated degrees; useful for degree-controlled sweeps.
func RandomRegularish(n, d int, rng *rand.Rand) *Graph {
	if d < 2 || d >= n {
		panic(fmt.Sprintf("graph: RandomRegularish(%d, %d) needs 2 <= d < n", n, d))
	}
	g := New(n)
	perm := make([]int, n)
	for sweep := 0; sweep < (d+1)/2; sweep++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 0; i+1 < n; i += 2 {
			if !g.HasEdge(perm[i], perm[i+1]) {
				g.AddEdge(perm[i], perm[i+1])
			}
		}
		// Close the sweep into a cycle so each sweep adds ~n edges and
		// keeps the graph connected after the first sweep.
		if !g.HasEdge(perm[n-1], perm[0]) {
			g.AddEdge(perm[n-1], perm[0])
		}
	}
	return g
}
