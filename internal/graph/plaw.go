package graph

import (
	"fmt"
	"math/rand"
	"slices"
)

// The symmetry-replicated power-law graph, a heavy-hub topology. PLawCSR
// writes it as a CSR snapshot (million-node runs); PLaw carves the
// mutable graph that fault injection edits out of that snapshot.

// plawBase builds one preferential-attachment block: a path over the
// first epn+1 seed nodes, then each node v attaches to epn distinct
// earlier nodes sampled proportionally to degree (classic endpoint-list
// sampling), giving the power-law degree tail whose early nodes are the
// hubs. Rows are returned sorted, carved from one array. Deterministic
// in (block, epn, seed).
func plawBase(block, epn int, seed int64) [][]int32 {
	if epn < 1 || block < epn+2 {
		panic(fmt.Sprintf("graph: power-law block needs epn >= 1 and block >= epn+2, got block=%d epn=%d", block, epn))
	}
	rng := rand.New(rand.NewSource(seed))
	// Endpoint list: every edge appends its two endpoints, so sampling a
	// uniform entry samples a node proportionally to its degree.
	endpoints := make([]int32, 0, 2*epn*block)
	for v := 1; v <= epn; v++ {
		endpoints = append(endpoints, int32(v-1), int32(v))
	}
	targets := make([]int32, 0, epn)
	for v := epn + 1; v < block; v++ {
		targets = targets[:0]
		for len(targets) < epn {
			t := endpoints[rng.Intn(len(endpoints))]
			dup := false
			for _, u := range targets {
				if u == t {
					dup = true
					break
				}
			}
			if !dup {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			endpoints = append(endpoints, t, int32(v))
		}
	}
	// A node's degree is its count in the endpoint list: size each row
	// from it, then fill the rows from the edges within those capacities.
	deg := make([]int32, block)
	for _, u := range endpoints {
		deg[u]++
	}
	back := make([]int32, len(endpoints))
	adj := make([][]int32, block)
	lo := int32(0)
	for v, d := range deg {
		adj[v] = back[lo : lo : lo+d]
		lo += d
	}
	for i := 0; i < len(endpoints); i += 2 {
		u, v := endpoints[i], endpoints[i+1]
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for _, row := range adj {
		slices.Sort(row)
	}
	return adj
}

// plawRing returns the inter-copy edges of the replicated topology: the
// node-0 hubs of consecutive copies form a path, closed into a ring when
// there are at least three copies (two copies would duplicate the edge).
func plawRing(copies int) int {
	if copies < 2 {
		return 0
	}
	ring := copies - 1
	if copies >= 3 {
		ring++
	}
	return ring
}

// PLaw returns the symmetry-replicated power-law graph as a mutable
// Graph, carved from PLawCSR with the same parameters: use this form
// when fault injection must mutate the topology.
func PLaw(block, copies, epn int, seed int64) *Graph {
	return fromCSR(PLawCSR(block, copies, epn, seed))
}

// PLawCSR returns the symmetry-replicated power-law graph as a CSR
// snapshot: `copies` identical preferential-attachment blocks of `block`
// nodes (copy c's node v has ID c*block + v), with the blocks' node-0
// hubs connected in a ring so the graph is connected. It replicates the
// base block straight into flat CSR arrays, so million-node power-law
// topologies cost one small block's preferential-attachment run plus
// two array fills.
func PLawCSR(block, copies, epn int, seed int64) *CSR {
	if copies < 1 {
		panic(fmt.Sprintf("graph: PLawCSR needs copies >= 1, got %d", copies))
	}
	base := plawBase(block, epn, seed)
	half := 0
	for _, row := range base {
		half += len(row)
	}
	n := block * copies
	edges := copies*(half/2) + plawRing(copies)
	c := newFullCSR(n, copies*half+2*plawRing(copies), edges)
	pos := int32(0)
	for cp := 0; cp < copies; cp++ {
		shift := int32(cp * block)
		for v, row := range base {
			id := int(shift) + v
			c.offsets[id] = pos
			if v == 0 {
				// Ring neighbours below the block's ID range come first;
				// shifted base rows lie strictly inside (shift, shift+block).
				if cp == copies-1 && copies >= 3 {
					c.neighbors[pos] = 0
					pos++
				}
				if cp > 0 {
					c.neighbors[pos] = shift - int32(block)
					pos++
				}
			}
			for _, u := range row {
				c.neighbors[pos] = shift + u
				pos++
			}
			if v == 0 {
				if cp+1 < copies {
					c.neighbors[pos] = shift + int32(block)
					pos++
				}
				if cp == 0 && copies >= 3 {
					c.neighbors[pos] = int32((copies - 1) * block)
					pos++
				}
			}
		}
	}
	c.offsets[n] = pos
	return c
}
