package fssga

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Network is a running FSSGA system: a graph whose live nodes each hold a
// state and share one automaton. The graph may shrink between steps
// (decreasing benign faults); dead nodes are frozen and skipped.
//
// Every execution path reads the topology through an immutable CSR
// snapshot (graph.CSR): rounds walk two flat int32 arrays instead of
// making per-node Alive/Degree/SortedNeighbors calls, and the snapshot
// is re-fetched at each round boundary so fault injection between (or
// at the start of) rounds is observed exactly once, by the next round.
type Network[S comparable] struct {
	// G is the (mutable) topology. Callers may remove nodes/edges between
	// steps to inject faults; they must never grow it. G is nil for
	// networks built by NewFromCSR, whose topology is a static snapshot.
	G *graph.Graph

	csr *graph.CSR // static topology when G == nil (NewFromCSR)

	auto   Automaton[S]
	states []S
	rngs   []*rand.Rand

	// seed is the master seed the per-node streams derive from; srcs
	// are the counting sources behind rngs (same index). rngUsed flips
	// the first time any node stream materializes its generator, so
	// deterministic runs can skip RNG snapshot/restore work entirely.
	seed    int64
	srcs    []*lazySource
	rngUsed atomic.Bool

	// Dense fast path (see dense.go): set when auto implements
	// DenseAutomaton with a state space within MaxDenseStates.
	denseAuto DenseAutomaton[S]
	numStates int
	idx       func(S) int

	serial  *viewScratch[S]   // shared by all serial execution paths
	workers []*viewScratch[S] // one per worker of the shard pool
	probe   *rand.Rand        // Quiescent's reusable throwaway stream

	// Persistent shard pool for parallel rounds (see shard.go). poolMu
	// guards creating/replacing/closing the pool so rounds racing Close
	// stay defined; roundActive rejects concurrent rounds on the same
	// network with ErrConcurrentRound; rngSnap is the supervisor's
	// reusable round-start RNG position scratch (see supervisor.go).
	pool        *shardPool
	poolMu      sync.Mutex
	roundActive atomic.Bool
	rngSnap     []uint64

	// Round kernel state (see round.go). changes is the last round's
	// change list, one buffer per chunk in chunk order; changedOn is the
	// snapshot it was committed on, nil after an out-of-band state change,
	// which makes the next frontier round step every node. work and mark
	// are the frontier work set derived from the list and its dedupe
	// marks (all false between rounds).
	changes   [][]change[S]
	changedOn *graph.CSR
	work      []int32
	mark      []bool

	// Divide-and-conquer view aggregation for high-degree nodes (see
	// agg.go): non-nil once a round ran with a SaturatingAutomaton on the
	// dense path; rebuilt whenever the CSR snapshot or cutoff changes.
	agg       *aggState[S]
	aggCutoff int

	// Rounds counts completed synchronous rounds; Activations counts
	// single-node asynchronous activations.
	Rounds      int
	Activations int

	// OnRound, if non-nil, is invoked after every completed synchronous
	// round with the round number (1-based).
	OnRound func(round int)

	// OnBeforeRound, if non-nil, is invoked at the start of every
	// synchronous round — before the snapshot σ is read — with the
	// upcoming round number (Rounds+1). Mutating the topology inside the
	// hook has exactly the semantics of calling faults.Injector.Advance
	// just before the round: the killed nodes are frozen and the
	// survivors' views for this round already exclude them. Fault
	// adversaries (internal/chaos) deliver kills through this hook.
	OnBeforeRound func(round int)
}

// New creates a network over g running auto, with node v initialized to
// init(v). Every node gets an independent deterministic random stream
// derived from seed, so runs are reproducible and independent of execution
// order and worker count.
//
// If auto implements DenseAutomaton and its NumStates fits MaxDenseStates,
// all views are built on dense multiplicity vectors (the zero-allocation
// fast path); otherwise the map fallback is used. Both representations
// expose identical observations, so the choice never changes results.
func New[S comparable](g *graph.Graph, auto Automaton[S], init func(v int) S, seed int64) *Network[S] {
	net := newNetwork[S](g, g.CSR(), auto, init, seed)
	net.csr = nil // always re-snapshot from the mutable graph
	return net
}

// NewFromCSR creates a network directly over an immutable CSR snapshot,
// bypassing the mutable graph.Graph entirely. This is the entry point
// for million-node topologies built by the streaming generators
// (graph.GridCSR, graph.TorusCSR, graph.CycleCSR): no per-node
// adjacency slices are ever materialized and the topology is fixed for
// the network's lifetime — fault injection needs a mutable graph, so
// use New for that. The G field of the returned network is nil.
//
// Execution semantics, view representations, and per-node random
// streams are identical to New over a graph with the same topology:
// given equal seeds the two produce bit-identical runs.
func NewFromCSR[S comparable](c *graph.CSR, auto Automaton[S], init func(v int) S, seed int64) *Network[S] {
	return newNetwork[S](nil, c, auto, init, seed)
}

// newNetwork is the shared constructor: c is the initial topology
// snapshot (kept as the static topology iff g is nil).
func newNetwork[S comparable](g *graph.Graph, c *graph.CSR, auto Automaton[S], init func(v int) S, seed int64) *Network[S] {
	n := c.Cap()
	net := &Network[S]{
		G:      g,
		csr:    c,
		auto:   auto,
		states: make([]S, n),
		rngs:   make([]*rand.Rand, n),
		seed:   seed,
		srcs:   make([]*lazySource, n),
	}
	if d, ok := auto.(DenseAutomaton[S]); ok {
		if ns := d.NumStates(); ns > 0 && ns <= MaxDenseStates {
			net.denseAuto = d
			net.numStates = ns
			net.idx = d.StateIndex
		}
	}
	for v := 0; v < n; v++ {
		net.srcs[v] = &lazySource{seed: mix(seed, int64(v)), used: &net.rngUsed}
		net.rngs[v] = rand.New(net.srcs[v])
		if c.Alive(v) {
			net.states[v] = init(v)
		}
	}
	return net
}

// topo returns the current topology snapshot: the static CSR for
// NewFromCSR networks, or a lazily (re)built snapshot of the mutable
// graph — pointer-stable while the graph is unmutated, fresh after any
// fault, so each round observes exactly the topology at its start.
//
//fssga:hotpath
func (net *Network[S]) topo() *graph.CSR {
	if net.G != nil {
		//fssga:alloc(CSR is pointer-stable while the graph is unmutated; a rebuild is paid once per fault)
		return net.G.CSR()
	}
	return net.csr
}

// mix derives a per-node seed from the master seed with a SplitMix64-style
// finalizer so nearby seeds give unrelated streams.
func mix(seed, v int64) int64 {
	z := uint64(seed) + uint64(v)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// DenseViews reports whether the network runs on the dense view fast path.
func (net *Network[S]) DenseViews() bool { return net.denseAuto != nil }

// State returns the current state of node v (meaningless for dead nodes).
func (net *Network[S]) State(v int) S { return net.states[v] }

// SetState overrides the state of node v; used to set up distinguished
// initial conditions (e.g. "one node is RED").
func (net *Network[S]) SetState(v int, s S) {
	net.states[v] = s
	net.changedOn = nil // out-of-band change: the change list no longer covers it
	net.invalidateAgg() // ...and the hub aggregate trees are stale
}

// States returns the internal state slice (indexed by node ID). Callers
// must treat it as read-only.
func (net *Network[S]) States() []S { return net.states }

// Seed returns the master seed the per-node random streams derive from.
func (net *Network[S]) Seed() int64 { return net.seed }

// Topology returns the network's current immutable topology snapshot:
// the static CSR for NewFromCSR networks, or a snapshot of the mutable
// graph as of now. Checkpointing uses its content hash to verify that a
// restore target matches the checkpointed topology.
func (net *Network[S]) Topology() *graph.CSR { return net.topo() }

// RNGDrawn reports whether any node's random stream has ever been
// drawn from. Deterministic automata never draw, so their networks
// report false forever and checkpoints can omit stream positions.
func (net *Network[S]) RNGDrawn() bool { return net.rngUsed.Load() }

// RNGPositions returns the per-node random stream positions (number of
// draws consumed, indexed by node ID), or nil if no stream has ever
// been drawn from — the all-zeros vector that nil denotes restores
// for free. The returned slice is freshly allocated.
func (net *Network[S]) RNGPositions() []uint64 {
	if !net.rngUsed.Load() {
		return nil
	}
	pos := make([]uint64, len(net.srcs))
	for v, s := range net.srcs {
		pos[v] = s.position()
	}
	return pos
}

// RestoreRNGPositions rewinds every per-node stream to its seed and
// fast-forwards it to the given position, so subsequent draws are
// bit-identical to a run that consumed exactly pos[v] draws at node v.
// A nil pos resets all streams to their start. Lengths must match.
func (net *Network[S]) RestoreRNGPositions(pos []uint64) error {
	if pos == nil {
		for _, s := range net.srcs {
			s.rewind(0)
		}
		return nil
	}
	if len(pos) != len(net.srcs) {
		return fmt.Errorf("fssga: RestoreRNGPositions got %d positions for %d nodes", len(pos), len(net.srcs))
	}
	for v, s := range net.srcs {
		s.rewind(pos[v])
	}
	return nil
}

// RestoreStates overwrites the full state vector and round counter,
// e.g. from a checkpoint. The slice length must equal the network's
// node capacity. Frontier bookkeeping is invalidated; the topology is
// NOT restored — callers must reconstruct it (and any faults applied to
// it) before restoring states, which internal/checkpoint verifies via
// the topology content hash.
func (net *Network[S]) RestoreStates(states []S, rounds int) error {
	if len(states) != len(net.states) {
		return fmt.Errorf("fssga: RestoreStates got %d states for %d nodes", len(states), len(net.states))
	}
	if rounds < 0 {
		return fmt.Errorf("fssga: RestoreStates got negative round counter %d", rounds)
	}
	copy(net.states, states)
	net.Rounds = rounds
	net.changedOn = nil
	net.invalidateAgg()
	return nil
}

// Activate performs one asynchronous activation of node v (no-op for dead
// or isolated nodes, since SM functions are defined on Q^+ only).
//
//fssga:hotpath
func (net *Network[S]) Activate(v int) {
	c := net.prepare()
	if v < 0 || v >= c.Cap() {
		return
	}
	nbrs := c.Neighbors(v)
	if len(nbrs) == 0 {
		return
	}
	old := net.states[v]
	net.states[v] = net.step(net.serialScratch(), v, nbrs, net.rngs[v])
	if net.aggActive() && net.states[v] != old {
		net.agg.noteChanged(int32(v))
	}
	net.Activations++
	net.changedOn = nil
}

// beforeRound fires the pre-round hook with the upcoming round number.
// The round kernel calls it exactly once per round, before the topology
// snapshot is read, so hook-driven topology mutations behave like
// pre-round fault injection.
//
//fssga:hotpath
func (net *Network[S]) beforeRound() {
	if net.OnBeforeRound != nil {
		//fssga:alloc(user hook runs outside the zero-alloc contract; nil in steady-state runs)
		net.OnBeforeRound(net.Rounds + 1)
	}
}

// Quiescent reports whether one more synchronous round would leave every
// state unchanged. It is meaningful only for deterministic automata; it
// evaluates successor states against one throwaway random stream (which a
// deterministic automaton must not consult) so the real per-node streams
// are not consumed.
//
//fssga:hotpath
func (net *Network[S]) Quiescent() bool {
	c := net.prepare()
	sc := net.serialScratch()
	if net.probe == nil {
		//fssga:alloc(one-time lazy construction of the reusable probe stream; reseeded in place afterwards)
		net.probe = rand.New(rand.NewSource(1))
	} else {
		//fssga:alloc(Seed delegates to the source in place; rand.Rand is outside the allocation whitelist)
		net.probe.Seed(1)
	}
	for v := 0; v < c.Cap(); v++ {
		nbrs := c.Neighbors(v)
		if len(nbrs) == 0 {
			continue
		}
		if net.step(sc, v, nbrs, net.probe) != net.states[v] {
			return false
		}
	}
	return true
}

// CountStates returns the multiset of live-node states.
func (net *Network[S]) CountStates() map[S]int {
	c := net.topo()
	counts := make(map[S]int)
	for v := 0; v < c.Cap(); v++ {
		if c.Alive(v) {
			counts[net.states[v]]++
		}
	}
	return counts
}
