package graph

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/wordhash"
)

// CSR is an immutable compressed-sparse-row snapshot of a graph's
// adjacency: flat int32 offset and neighbour arrays plus an alive mask.
// It is the execution engine's read path — one contiguous array walk per
// round instead of per-node method calls and neighbour-slice copies —
// and the form the streaming generators write. The mutable Graph of a
// regular topology is a view of one such snapshot (fromCSR) until its
// first fault, which gives it rows of its own to edit.
//
// Invariants (shared with Graph.Validate): per-node neighbour lists are
// strictly increasing, dead nodes have empty lists, adjacency is
// symmetric. A CSR never changes after construction; mutating the
// originating Graph produces a *new* snapshot on the next call to
// Graph.CSR() while outstanding snapshots stay valid.
type CSR struct {
	offsets   []int32 // len Cap()+1; node v's neighbours live at neighbors[offsets[v]:offsets[v+1]]
	neighbors []int32 // concatenated sorted adjacency (2·NumEdges entries)
	alive     []bool  // len Cap(); false for removed nodes
	nAlive    int
	mAlive    int

	hashOnce sync.Once // ContentHash is computed on first use, then kept
	hash     uint64
}

// Cap returns the number of node slots, including dead nodes.
func (c *CSR) Cap() int { return len(c.alive) }

// NumNodes returns the number of live nodes.
func (c *CSR) NumNodes() int { return c.nAlive }

// NumEdges returns the number of live edges.
func (c *CSR) NumEdges() int { return c.mAlive }

// Alive reports whether node v exists and was live at snapshot time.
func (c *CSR) Alive(v int) bool {
	return v >= 0 && v < len(c.alive) && c.alive[v]
}

// Degree returns the number of live neighbours of v (0 for dead nodes,
// whose adjacency is empty by the graph invariant).
func (c *CSR) Degree(v int) int {
	return int(c.offsets[v+1] - c.offsets[v])
}

// Neighbors returns node v's live neighbours in increasing order. The
// returned slice aliases the snapshot's backing array: callers must not
// modify it. This is the engine's hot accessor — a two-load slice
// expression with no copy, no interface dispatch, and no liveness
// branch (dead and isolated nodes simply yield an empty slice).
func (c *CSR) Neighbors(v int) []int32 {
	return c.neighbors[c.offsets[v]:c.offsets[v+1]]
}

// Nodes appends the IDs of all live nodes, in increasing order, to buf.
func (c *CSR) Nodes(buf []int) []int {
	for v, a := range c.alive {
		if a {
			buf = append(buf, v)
		}
	}
	return buf
}

// MaxDegree returns the maximum degree over live nodes.
func (c *CSR) MaxDegree() int {
	max := 0
	for v := range c.alive {
		if d := c.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// String returns a short human-readable summary.
func (c *CSR) String() string {
	return fmt.Sprintf("csr{n=%d m=%d cap=%d}", c.nAlive, c.mAlive, len(c.alive))
}

// ContentHash returns a word hash (internal/wordhash) of the snapshot's
// full topology: capacity, alive mask, and the offset/neighbour arrays.
// Two snapshots hash equal iff they describe the same topology over the
// same node-ID space, regardless of how they were built (mutable-graph
// snapshot or streaming generator). Checkpoints store this hash as a
// content-addressed reference to the topology they were captured
// against, so a restore onto the wrong (or wrongly reconstructed) graph
// fails loudly instead of resuming a run on a different network. A
// snapshot never changes, so the hash is computed once, on first use;
// ContentHash is safe for concurrent use.
func (c *CSR) ContentHash() uint64 {
	c.hashOnce.Do(func() { c.hash = c.contentHash() })
	return c.hash
}

// contentHash is the pass behind ContentHash. The alive mask is written
// as the capacity, the live count and the dead nodes; most snapshots
// have none, and then the mask is not read.
func (c *CSR) contentHash() uint64 {
	d := wordhash.New()
	d.WriteWord(uint64(len(c.alive)))
	d.WriteWord(uint64(c.nAlive))
	if c.nAlive < len(c.alive) {
		for v, a := range c.alive {
			if !a {
				d.WriteWord(uint64(v))
			}
		}
	}
	d.WriteInt32s(c.offsets)
	d.WriteInt32s(c.neighbors)
	return d.Sum64()
}

// CSR returns an immutable snapshot of the graph's current topology,
// rebuilding it lazily: consecutive calls without an intervening
// mutation return the identical (pointer-equal) snapshot, so a
// steady-state round loop pays zero allocations, while any
// AddEdge/RemoveEdge/RemoveNode invalidates the cache and the next call
// builds a fresh snapshot. Snapshots already handed out are never
// mutated in place — holders keep a consistent view of the topology as
// it was when they asked.
func (g *Graph) CSR() *CSR {
	if g.csr != nil && g.csrVersion == g.version {
		return g.csr
	}
	n := len(g.alive)
	c := &CSR{
		offsets: make([]int32, n+1),
		alive:   slices.Clone(g.alive),
		nAlive:  g.nAlive,
		mAlive:  g.mAlive,
	}
	half := 0
	for v := 0; v < n; v++ {
		half += len(g.row(v))
	}
	c.neighbors = make([]int32, half)
	pos := int32(0)
	for v := 0; v < n; v++ {
		c.offsets[v] = pos
		pos += int32(copy(c.neighbors[pos:], g.row(v)))
	}
	c.offsets[n] = pos
	g.csr, g.csrVersion = c, g.version
	return c
}

// fromCSR returns a mutable graph with c's topology that copies
// nothing: it reads its rows and its alive mask from c until its first
// mutation carves rows of its own (Graph.own), and it keeps c as its
// cached snapshot, so its first CSR() call costs nothing. c stays
// immutable either way.
func fromCSR(c *CSR) *Graph {
	return &Graph{
		base:   c,
		alive:  c.alive,
		nAlive: c.nAlive,
		mAlive: c.mAlive,
		csr:    c,
	}
}

// The streaming generators below write CSR snapshots for the regular
// experiment topologies directly — counting degrees analytically and
// filling the flat arrays in one pass. They are the one place these
// topologies are written: the mutable generators (Cycle, Torus,
// Hypercube, PLaw) are fromCSR over them.

// newFullCSR returns a CSR skeleton with all n nodes alive and room for
// half directed neighbour entries.
func newFullCSR(n, half, edges int) *CSR {
	c := &CSR{
		offsets:   make([]int32, n+1),
		neighbors: make([]int32, half),
		alive:     make([]bool, n),
		nAlive:    n,
		mAlive:    edges,
	}
	for v := range c.alive {
		c.alive[v] = true
	}
	return c
}

// CycleCSR returns the cycle graph C_n (n >= 3) as a CSR snapshot; Cycle
// is the mutable graph carved from it.
func CycleCSR(n int) *CSR {
	if n < 3 {
		panic(fmt.Sprintf("graph: CycleCSR(%d) needs n >= 3", n))
	}
	c := newFullCSR(n, 2*n, n)
	pos := int32(0)
	for v := 0; v < n; v++ {
		c.offsets[v] = pos
		prev, next := v-1, v+1
		if v == 0 {
			prev = n - 1
		}
		if v == n-1 {
			next = 0
		}
		if prev < next {
			c.neighbors[pos], c.neighbors[pos+1] = int32(prev), int32(next)
		} else {
			c.neighbors[pos], c.neighbors[pos+1] = int32(next), int32(prev)
		}
		pos += 2
	}
	c.offsets[n] = pos
	return c
}

// GridCSR returns the rows x cols 4-neighbour lattice as a CSR
// snapshot, equivalent to Grid(rows, cols).CSR(). Node (r, c) has ID
// r*cols + c.
func GridCSR(rows, cols int) *CSR {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("graph: GridCSR(%d, %d) needs positive dimensions", rows, cols))
	}
	n := rows * cols
	// m = horizontal + vertical edges.
	edges := rows*(cols-1) + (rows-1)*cols
	c := newFullCSR(n, 2*edges, edges)
	pos := int32(0)
	for r := 0; r < rows; r++ {
		for col := 0; col < cols; col++ {
			v := r*cols + col
			c.offsets[v] = pos
			// Neighbour IDs in increasing order: up, left, right, down.
			if r > 0 {
				c.neighbors[pos] = int32(v - cols)
				pos++
			}
			if col > 0 {
				c.neighbors[pos] = int32(v - 1)
				pos++
			}
			if col+1 < cols {
				c.neighbors[pos] = int32(v + 1)
				pos++
			}
			if r+1 < rows {
				c.neighbors[pos] = int32(v + cols)
				pos++
			}
		}
	}
	c.offsets[n] = pos
	return c
}

// TorusCSR returns the rows x cols grid with wraparound in both
// dimensions (both >= 3) as a CSR snapshot; Torus is the mutable graph
// carved from it. This is the regular 4-degree lattice the scaling
// benchmarks use: every node identical, no boundary effects.
func TorusCSR(rows, cols int) *CSR {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: TorusCSR(%d, %d) needs both dims >= 3", rows, cols))
	}
	n := rows * cols
	c := newFullCSR(n, 4*n, 2*n)
	for r := 0; r < rows; r++ {
		row := r * cols
		up := ((r-1+rows)%rows)*cols - row
		down := ((r+1)%rows)*cols - row
		for col := 0; col < cols; col++ {
			v := row + col
			// The four neighbours in increasing order, without a sort:
			// two in v's row and two in the rows above and below, which
			// lie on both sides of v's row except in the first row (both
			// after it) and the last (both before it).
			l, rt := v-1, v+1
			if col == 0 {
				l = row + cols - 1
			}
			if col == cols-1 {
				rt = row
			}
			if l > rt {
				l, rt = rt, l
			}
			u, d := v+up, v+down
			if u > d {
				u, d = d, u
			}
			c.offsets[v] = int32(4 * v)
			s := c.neighbors[4*v : 4*v+4]
			switch {
			case u > v:
				s[0], s[1], s[2], s[3] = int32(l), int32(rt), int32(u), int32(d)
			case d < v:
				s[0], s[1], s[2], s[3] = int32(u), int32(d), int32(l), int32(rt)
			default:
				s[0], s[1], s[2], s[3] = int32(u), int32(l), int32(rt), int32(d)
			}
		}
	}
	c.offsets[n] = int32(4 * n)
	return c
}

// HypercubeCSR returns the d-dimensional hypercube Q_d on 2^d nodes
// (1 <= d <= 24) as a CSR snapshot; Hypercube is the mutable graph
// carved from it. Node v's neighbours are v with one bit flipped.
func HypercubeCSR(d int) *CSR {
	if d < 1 || d > 24 {
		panic(fmt.Sprintf("graph: HypercubeCSR(%d) needs 1 <= d <= 24", d))
	}
	n := 1 << uint(d)
	c := newFullCSR(n, d*n, d*n/2)
	pos := int32(0)
	for v := 0; v < n; v++ {
		c.offsets[v] = pos
		// Increasing order: clearing a set bit gives a smaller ID the
		// higher the bit, setting a clear bit a larger one.
		for b := d - 1; b >= 0; b-- {
			if v&(1<<uint(b)) != 0 {
				c.neighbors[pos] = int32(v &^ (1 << uint(b)))
				pos++
			}
		}
		for b := 0; b < d; b++ {
			if v&(1<<uint(b)) == 0 {
				c.neighbors[pos] = int32(v | 1<<uint(b))
				pos++
			}
		}
	}
	c.offsets[n] = pos
	return c
}

// Validate checks the CSR invariants (strictly sorted rows, symmetric
// adjacency, dead nodes empty, counts consistent) and returns the first
// violation, or nil. Used by property-based tests.
func (c *CSR) Validate() error {
	if len(c.offsets) != len(c.alive)+1 {
		return fmt.Errorf("csr: offsets len %d, want cap+1 = %d", len(c.offsets), len(c.alive)+1)
	}
	if c.offsets[0] != 0 || int(c.offsets[len(c.alive)]) != len(c.neighbors) {
		return fmt.Errorf("csr: offset bounds [%d, %d], want [0, %d]",
			c.offsets[0], c.offsets[len(c.alive)], len(c.neighbors))
	}
	nA, half := 0, 0
	for v := range c.alive {
		if c.offsets[v] > c.offsets[v+1] {
			return fmt.Errorf("csr: offsets decrease at node %d", v)
		}
		ns := c.Neighbors(v)
		if c.alive[v] {
			nA++
		} else if len(ns) != 0 {
			return fmt.Errorf("csr: dead node %d has %d neighbours", v, len(ns))
		}
		for i, u := range ns {
			if i > 0 && ns[i-1] >= u {
				return fmt.Errorf("csr: adjacency of %d not strictly sorted at %d", v, u)
			}
			if int(u) == v {
				return fmt.Errorf("csr: self-loop at %d", v)
			}
			if u < 0 || int(u) >= len(c.alive) {
				return fmt.Errorf("csr: node %d adjacent to out-of-range %d", v, u)
			}
			if !c.alive[u] {
				return fmt.Errorf("csr: live node %d adjacent to dead node %d", v, u)
			}
			if !csrHasEdge(c, int(u), v) {
				return fmt.Errorf("csr: asymmetric edge (%d,%d)", v, u)
			}
			half++
		}
	}
	if nA != c.nAlive {
		return fmt.Errorf("csr: node count mismatch: counted %d, recorded %d", nA, c.nAlive)
	}
	if half != 2*c.mAlive {
		return fmt.Errorf("csr: edge count mismatch: counted %d half-edges, recorded %d edges", half, c.mAlive)
	}
	return nil
}

// csrHasEdge reports whether w occurs in u's neighbour row, by binary
// search over the sorted row.
func csrHasEdge(c *CSR, u, w int) bool {
	ns := c.Neighbors(u)
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(ns[mid]) < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ns) && int(ns[lo]) == w
}
