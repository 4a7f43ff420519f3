package fssga

import (
	"fmt"
	"runtime"
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

	// seed is the master seed the per-step streams derive from (rng.go).
	seed int64

	// The palette (palette.go) numbers the states that occur, and
	// pal.ent[ids[v]].s is states[v] for every node whenever a step
	// runs: commit, SetState and Activate write state and id together,
	// and New and RestoreStates mark the ids stale for the next round,
	// Activate or Quiescent to renumber (sync). slots is the length of
	// every scratch's slot vector.
	pal   palette[S]
	ids   []int32
	stale bool
	slots int

	// workers[w] is worker w's view scratch; the serial paths share
	// workers[0], the round owner's.
	workers []*viewScratch[S]

	// Persistent shard pool for parallel rounds (see shard.go) and the
	// runtime cleanup that closes it when the network is collected;
	// roundActive rejects concurrent rounds on the same network with
	// ErrConcurrentRound and so admits one pool user at a time. poolBody
	// is stepChunks bound once, and poolRound the supervised round being
	// stepped, inline or on the pool, set only while it is stepped.
	pool        *shardPool
	poolCleanup runtime.Cleanup
	poolBody    func(pool *shardPool, worker int)
	poolRound   poolRound[S]
	roundActive atomic.Bool

	// Round kernel state (see round.go). changes is the last round's
	// change list, one buffer per chunk, in ascending node order. A
	// frontier round's workers mark the next frontier in their own mark
	// sets; markedOn is the snapshot it committed on, nil after a full
	// round, an out-of-band state change or a failed round, which makes
	// the next frontier round step every node. work is the drained marks.
	changes  [][]change[S]
	markedOn *graph.CSR
	work     []int32

	// Rounds counts completed synchronous rounds; Activations counts
	// single-node asynchronous activations. Their sum is the epoch of
	// the next step's random streams (rng.go).
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
// init(v). Every step of every node draws from its own stream, a pure
// function of (seed, node, epoch) (rng.go), so runs are reproducible and
// independent of execution order and worker count.
//
// Any automaton runs on one view path: the network numbers the states
// that occur in a palette and keeps each node's id beside its state,
// and a view counts neighbours by id. The first round, Activate or
// Quiescent numbers the initial states.
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
		ids:    make([]int32, n),
		stale:  true,
		seed:   seed,
	}
	for v := 0; v < n; v++ {
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

// epoch is the stream epoch of the next step: all steps of one round
// share it, and every committed round or activation advances it.
//
//fssga:hotpath
func (net *Network[S]) epoch() uint64 { return uint64(net.Rounds + net.Activations) }

// State returns the current state of node v (meaningless for dead nodes).
func (net *Network[S]) State(v int) S { return net.states[v] }

// SetState overrides the state of node v; used to set up distinguished
// initial conditions (e.g. "one node is RED").
func (net *Network[S]) SetState(v int, s S) {
	if net.stale {
		net.states[v] = s // the next sync numbers it
	} else {
		net.set(v, s, net.pal.intern(s))
	}
	net.markedOn = nil // out-of-band change: the marks no longer cover it
}

// set writes node v's state s and its palette id, moving v's count
// from its old id.
//
//fssga:hotpath
func (net *Network[S]) set(v int, s S, id int32) {
	net.pal.count(net.ids[v], -1)
	net.pal.count(id, 1)
	net.states[v], net.ids[v] = s, id
}

// States returns the internal state slice (indexed by node ID). Callers
// must treat it as read-only.
func (net *Network[S]) States() []S { return net.states }

// StateIDs returns every node's palette id (indexed by node ID, like
// States) and the id bound n: ids[v] < n, and two nodes share an id iff
// they share a state. It first numbers the states if a restore or the
// constructor left the ids stale. Callers must treat ids as read-only;
// it is current until the next step or state change.
func (net *Network[S]) StateIDs() (ids []int32, n int) {
	net.sync()
	return net.ids, len(net.pal.ent)
}

// Seed returns the master seed the per-step random streams derive from.
func (net *Network[S]) Seed() int64 { return net.seed }

// Topology returns the network's current immutable topology snapshot:
// the static CSR for NewFromCSR networks, or a snapshot of the mutable
// graph as of now. Checkpointing uses its content hash to verify that a
// restore target matches the checkpointed topology.
func (net *Network[S]) Topology() *graph.CSR { return net.topo() }

// RNGPositions returns nil: node streams are a function of the round
// counter, so there are no positions to save.
//
// Deprecated: drop the call. RNGPositions is kept only for callers that
// still make it.
func (net *Network[S]) RNGPositions() []uint64 { return nil }

// AggStats is the activity record of the hub aggregation trees, which
// are gone: every view is one linear scan of the node's neighbours.
//
// Deprecated: it is always zero. AggStats is kept only for callers that
// still read it.
type AggStats struct {
	Hubs         int
	HubViews     uint64
	TreeRebuilds uint64
	LeafRescans  uint64
}

// AggStats returns the zero AggStats.
//
// Deprecated: drop the call. AggStats is kept only for callers that
// still make it.
func (net *Network[S]) AggStats() AggStats { return AggStats{} }

// RestoreStates overwrites the full state vector and round counter,
// e.g. from a checkpoint. The round counter also restores the random
// streams: with no activations, a restored network draws exactly what
// the checkpointed one would have. The slice length must equal the
// network's node capacity. The frontier marks and the ids are
// invalidated, and the next step renumbers the ids; the topology is NOT
// restored — callers must reconstruct it (and any faults applied to it)
// before restoring states, which internal/checkpoint verifies via the
// topology content hash.
func (net *Network[S]) RestoreStates(states []S, rounds int) error {
	if len(states) != len(net.states) {
		return fmt.Errorf("fssga: RestoreStates got %d states for %d nodes", len(states), len(net.states))
	}
	if rounds < 0 {
		return fmt.Errorf("fssga: RestoreStates got negative round counter %d", rounds)
	}
	copy(net.states, states)
	net.Rounds = rounds
	net.markedOn = nil
	net.stale = true
	return nil
}

// Activate performs one asynchronous activation of node v (no-op for dead
// or isolated nodes, since SM functions are defined on Q^+ only).
//
//fssga:hotpath
func (net *Network[S]) Activate(v int) {
	c := net.topo()
	if v < 0 || v >= c.Cap() {
		return
	}
	nbrs := c.Neighbors(v)
	if len(nbrs) == 0 {
		return
	}
	net.sync()
	sc := net.serialScratch()
	sc.src.epoch = net.epoch()
	s := net.step(sc, v, nbrs)
	net.set(v, s, net.pal.intern(s))
	net.Activations++
	net.markedOn = nil
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

// Quiescent reports whether the next synchronous round would leave
// every state unchanged. It steps every node with the streams that round
// will draw from, so it is exact for randomized automata too, and it
// consumes nothing: a stream is a function of the epoch, which only a
// committed round or activation advances. A pre-round hook that changes
// the topology is not foreseen.
//
//fssga:hotpath
func (net *Network[S]) Quiescent() bool {
	c := net.topo()
	net.sync()
	sc := net.serialScratch()
	sc.src.epoch = net.epoch()
	for v := 0; v < c.Cap(); v++ {
		nbrs := c.Neighbors(v)
		if len(nbrs) == 0 {
			continue
		}
		if net.step(sc, v, nbrs) != net.states[v] {
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
