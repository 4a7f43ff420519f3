package graph

import "sort"

// This file implements the centralized "oracle" algorithms used to validate
// distributed FSSGA outputs: connectivity, components, BFS distances,
// bridges (Tarjan), and bipartiteness. They operate only on live nodes.
// All traversals visit neighbours in sorted order, so every oracle result
// — including intermediate queue contents — is independent of map
// iteration order.

// Unreachable is the distance value reported for nodes with no path to any
// source (and for dead nodes).
const Unreachable = -1

// Connected reports whether all live nodes lie in one connected component.
// The empty graph and single-node graphs count as connected.
func (g *Graph) Connected() bool {
	start := -1
	for v, a := range g.alive {
		if a {
			start = v
			break
		}
	}
	if start == -1 {
		return true
	}
	seen := 0
	visited := make([]bool, len(g.alive))
	queue := []int{start}
	visited[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		seen++
		for _, u := range g.row(v) {
			if !visited[u] {
				visited[u] = true
				queue = append(queue, int(u))
			}
		}
	}
	return seen == g.nAlive
}

// Components returns the connected components of the live subgraph, each as
// a sorted slice of node IDs, ordered by their smallest element.
func (g *Graph) Components() [][]int {
	var comps [][]int
	visited := make([]bool, len(g.alive))
	for s, a := range g.alive {
		if !a || visited[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		visited[s] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			for _, u := range g.row(v) {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, int(u))
				}
			}
		}
		// BFS from the smallest unvisited node emits comp in discovery
		// order; sort for a canonical representation.
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// ComponentOf returns the sorted component containing v, or nil if v is dead.
func (g *Graph) ComponentOf(v int) []int {
	if !g.Alive(v) {
		return nil
	}
	visited := make([]bool, len(g.alive))
	var comp []int
	queue := []int{v}
	visited[v] = true
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		comp = append(comp, w)
		for _, u := range g.row(w) {
			if !visited[u] {
				visited[u] = true
				queue = append(queue, int(u))
			}
		}
	}
	sort.Ints(comp)
	return comp
}

// BFSDistances returns dist[v] = length of the shortest path from v to the
// nearest source, or Unreachable. Dead sources are ignored; dead nodes get
// Unreachable.
func (g *Graph) BFSDistances(sources ...int) []int {
	dist := make([]int, len(g.alive))
	for i := range dist {
		dist[i] = Unreachable
	}
	var queue []int
	for _, s := range sources {
		if g.Alive(s) && dist[s] == Unreachable {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.row(v) {
			if dist[u] == Unreachable {
				dist[u] = dist[v] + 1
				queue = append(queue, int(u))
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum finite BFS distance from v, or
// Unreachable if v is dead.
func (g *Graph) Eccentricity(v int) int {
	if !g.Alive(v) {
		return Unreachable
	}
	ecc := 0
	for _, d := range g.BFSDistances(v) {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the maximum eccentricity over live nodes. It returns
// Unreachable for a disconnected (or empty) graph.
func (g *Graph) Diameter() int {
	if g.nAlive == 0 || !g.Connected() {
		return Unreachable
	}
	diam := 0
	for v, a := range g.alive {
		if !a {
			continue
		}
		if e := g.Eccentricity(v); e > diam {
			diam = e
		}
	}
	return diam
}

// Bridges returns all bridges (cut edges) of the live subgraph in canonical
// sorted order, using an iterative Tarjan lowlink DFS. This is the oracle
// for the random-walk bridge-finding experiment (E2).
func (g *Graph) Bridges() []Edge {
	n := len(g.alive)
	disc := make([]int, n)   // discovery time, 0 = unvisited
	low := make([]int, n)    // lowlink
	parent := make([]int, n) // DFS parent, -1 at roots
	for i := range parent {
		parent[i] = -1
	}
	var bridges []Edge
	timer := 0

	type frame struct {
		v     int
		iter  []int32 // v's row; neighbours from index on remain
		index int
	}

	for root := 0; root < n; root++ {
		if !g.alive[root] || disc[root] != 0 {
			continue
		}
		timer++
		disc[root] = timer
		low[root] = timer
		stack := []frame{{v: root, iter: g.row(root)}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.index < len(f.iter) {
				u := int(f.iter[f.index])
				f.index++
				if disc[u] == 0 {
					parent[u] = f.v
					timer++
					disc[u] = timer
					low[u] = timer
					stack = append(stack, frame{v: u, iter: g.row(u)})
				} else if u != parent[f.v] {
					if disc[u] < low[f.v] {
						low[f.v] = disc[u]
					}
				}
				continue
			}
			// Done with f.v: propagate lowlink to parent and test bridge.
			stack = stack[:len(stack)-1]
			p := parent[f.v]
			if p != -1 {
				if low[f.v] < low[p] {
					low[p] = low[f.v]
				}
				if low[f.v] > disc[p] {
					bridges = append(bridges, NormEdge(p, f.v))
				}
			}
		}
	}
	sortEdges(bridges)
	return bridges
}

func sortEdges(es []Edge) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0; j-- {
			a, b := es[j-1], es[j]
			if a.U < b.U || (a.U == b.U && a.V <= b.V) {
				break
			}
			es[j-1], es[j] = b, a
		}
	}
}

// IsBridge reports whether {u, v} is a live edge whose removal would
// disconnect its component.
func (g *Graph) IsBridge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	target := NormEdge(u, v)
	for _, b := range g.Bridges() {
		if b == target {
			return true
		}
	}
	return false
}

// TwoColor attempts to 2-colour the live subgraph. It returns (colors, true)
// with colors[v] in {0, 1} (Unreachable for dead nodes) if the graph is
// bipartite, or (nil, false) otherwise. This is the oracle for E4.
func (g *Graph) TwoColor() ([]int, bool) {
	colors := make([]int, len(g.alive))
	for i := range colors {
		colors[i] = Unreachable
	}
	for s, a := range g.alive {
		if !a || colors[s] != Unreachable {
			continue
		}
		colors[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.row(v) {
				if colors[u] == Unreachable {
					colors[u] = 1 - colors[v]
					queue = append(queue, int(u))
				} else if colors[u] == colors[v] {
					return nil, false
				}
			}
		}
	}
	return colors, true
}

// IsBipartite reports whether the live subgraph is bipartite.
func (g *Graph) IsBipartite() bool {
	_, ok := g.TwoColor()
	return ok
}

// SpanningTree returns the parent array of a BFS spanning tree rooted at
// root (parent[root] = root; Unreachable for nodes outside root's
// component). Used by the β synchronizer baseline.
func (g *Graph) SpanningTree(root int) []int {
	parent := make([]int, len(g.alive))
	for i := range parent {
		parent[i] = Unreachable
	}
	if !g.Alive(root) {
		return parent
	}
	parent[root] = root
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.row(v) {
			if parent[u] == Unreachable {
				parent[u] = v
				queue = append(queue, int(u))
			}
		}
	}
	return parent
}
