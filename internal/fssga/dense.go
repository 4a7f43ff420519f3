package fssga

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// ErrStateIndex is returned by a round that finds a live node whose
// state StateIndex puts outside [0, NumStates()), which breaks the
// DenseAutomaton contract. Only initial states and states written by
// RestoreStates can reach a round unchecked; nothing is committed.
var ErrStateIndex = errors.New("fssga: a live node's state has a StateIndex outside [0, NumStates())")

// DenseAutomaton is an optional extension of Automaton for automata whose
// state space admits a small dense enumeration. When the automaton handed
// to New implements it (and NumStates is within MaxDenseStates), the
// network keeps each node's StateIndex beside its state, and a View finds
// a neighbour state's place through a reusable []int32 slot vector
// indexed by it instead of a hash map lookup. Automata that do not
// implement it run unchanged on map views.
//
// Contract: StateIndex must be a pure function, safe for concurrent use,
// and must return a value in [0, NumStates()) for every state that can
// occur in the network (initial states and everything Step can produce).
// The engine checks the range where it computes an index: a step or
// SetState whose state is out of range panics before anything is
// written, and a round that finds one among the initial or restored
// states fails with ErrStateIndex. Distinct states must map to distinct
// indices, otherwise their multiplicities merge and observations are
// silently wrong. NumStates must be constant over the automaton's
// lifetime. Results are bit-identical to map views: both build the same
// present list, and a View's observations are functions of the
// multiplicities only.
type DenseAutomaton[S comparable] interface {
	Automaton[S]

	// NumStates returns the size of the dense state enumeration. An
	// automaton whose state space is unbounded or too large to enumerate
	// may return a huge value (e.g. math.MaxInt) to opt out: the engine
	// falls back to map views whenever NumStates exceeds MaxDenseStates.
	NumStates() int

	// StateIndex maps a state to its dense index in [0, NumStates()).
	StateIndex(s S) int
}

// MaxDenseStates caps the dense-path state-space size: above it the
// per-worker slot vector (4 bytes per state per worker) would cost more
// than the map lookups it saves, so the engine silently uses map views
// instead.
const MaxDenseStates = 1 << 20

// viewScratch is a per-worker reusable workspace for stepping nodes
// without allocating; each pool worker owns one, the serial paths share
// one. Its View owns the buffers: the present list is reused at capacity,
// and the lookup (slot vector or map) holds only the current view's
// states, so a reset never pays for an earlier, larger view. Its rand.Rand
// is the stream of the step in progress (rng.go).
type viewScratch[S comparable] struct {
	view    View[S]
	presIdx []int32 // dense mode: presIdx[k] == idx(view.present[k]), for the reset

	// rnd draws from src, which stream re-points for every step. It is
	// held by value so that every write of a step lands in this object.
	src keyedSource
	rnd rand.Rand

	// A pool worker writes its scratch on every step. The pad keeps
	// those writes off the cache lines of the next object in memory,
	// such as another worker's scratch (TestViewScratchPad).
	_ [64]byte
}

// newScratch allocates a workspace matching the network's view mode,
// drawing from the network's streams.
func (net *Network[S]) newScratch() *viewScratch[S] {
	sc := &viewScratch[S]{src: keyedSource{seed: net.seed}}
	if net.ids == nil {
		sc.view.slots = make(map[S]int32)
	} else {
		sc.view.slot, sc.view.idx = make([]int32, net.numStates), net.idx
	}
	sc.rnd = *rand.New(&sc.src)
	return sc
}

// stream re-points the scratch's rand.Rand at node v's stream for the
// epoch in src and returns it. After a step that drew, Seed also clears
// the Read buffer, whose leftover bytes would otherwise pass to this step.
//
//fssga:hotpath
func (sc *viewScratch[S]) stream(v int) *rand.Rand {
	if sc.src.keyed {
		//fssga:alloc(rand.Rand.Seed only stores into the keyed source and clears the Read buffer; it runs only after a step that drew)
		sc.rnd.Seed(0)
	}
	sc.src.node, sc.src.keyed = v, false
	return &sc.rnd
}

// newMapScratch allocates a map-mode workspace sized for n distinct states.
func newMapScratch[S comparable](n int) *viewScratch[S] {
	return &viewScratch[S]{view: View[S]{slots: make(map[S]int32, n)}}
}

// reset empties the view under construction in O(its distinct states).
//
//fssga:hotpath
func (sc *viewScratch[S]) reset() {
	v := &sc.view
	if v.slot != nil {
		for _, i := range sc.presIdx {
			v.slot[i] = 0
		}
		sc.presIdx = sc.presIdx[:0]
	} else {
		for _, s := range v.present {
			delete(v.slots, s)
		}
	}
	v.present = v.present[:0]
	v.mult = v.mult[:0]
}

// push appends state s, absent from the view so far, with multiplicity
// n; i is its StateIndex (unused in map mode). Every first-seen state of
// every view goes through here.
//
//fssga:hotpath
func (sc *viewScratch[S]) push(s S, i int32, n int32) {
	v := &sc.view
	//fssga:alloc(present grows to the distinct-state count once, then is reused at capacity)
	v.present = append(v.present, s)
	//fssga:alloc(mult grows to the distinct-state count once, then is reused at capacity)
	v.mult = append(v.mult, n)
	if v.slot != nil {
		v.slot[i] = int32(len(v.present))
		//fssga:alloc(presIdx grows to the distinct-state count once, then is reused at capacity)
		sc.presIdx = append(sc.presIdx, i)
	} else {
		v.slots[s] = int32(len(v.present))
	}
}

// add counts n more neighbours in state s on a map-mode scratch: the
// constructors' path (the engine inlines the repeat case).
func (sc *viewScratch[S]) add(s S, n int32) {
	if k := sc.view.slots[s]; k != 0 {
		sc.view.mult[k-1] += n
	} else {
		sc.push(s, 0, n)
	}
}

// buildView assembles a node's symmetric view of the neighbours listed
// in nbrs (a CSR neighbour row) from the committed states into sc, in one
// linear scan: a repeated state costs one lookup and one increment,
// inline; only first-seen states call push. On the dense path the lookup
// key is the neighbour's id, kept at commit, so a neighbour's state is
// read only when it is first seen. The returned View aliases the scratch
// buffers: it is valid only until the next buildView on the same
// scratch, which is exactly the duration of one Step call.
//
//fssga:hotpath
func (net *Network[S]) buildView(sc *viewScratch[S], nbrs []int32) *View[S] {
	sc.reset()
	v := &sc.view
	states := net.states
	if slot := v.slot; slot != nil {
		ids := net.ids
		for _, u := range nbrs {
			i := ids[u]
			if k := slot[i]; k != 0 {
				v.mult[k-1]++
			} else {
				sc.push(states[u], i, 1)
			}
		}
	} else {
		for _, u := range nbrs {
			s := states[u]
			if k := v.slots[s]; k != 0 {
				v.mult[k-1]++
			} else {
				sc.push(s, 0, 1)
			}
		}
	}
	v.total = len(nbrs)
	return v
}

// index returns s's dense index, and whether StateIndex kept it in
// [0, NumStates()) as the DenseAutomaton contract requires. It is the
// engine's one call of StateIndex outside a View's exact-state lookup.
//
//fssga:hotpath
func (net *Network[S]) index(s S) (int32, bool) {
	//fssga:alloc(StateIndex is a table lookup by the DenseAutomaton contract; dispatch through the stored func value)
	i := net.idx(s)
	return int32(i), i >= 0 && i < net.numStates
}

// idOf returns the id stored beside state s: its dense index on a dense
// network, 0 on a map network. Every state a step or SetState writes
// goes through here, so it panics, before anything is written, if
// StateIndex puts s out of range.
//
//fssga:hotpath
func (net *Network[S]) idOf(s S) int32 {
	if net.ids == nil {
		return 0
	}
	id, ok := net.index(s)
	if !ok {
		panic(fmt.Sprintf("fssga: StateIndex returned %d for state %v, want 0..%d", net.idx(s), s, net.numStates-1))
	}
	return id
}

// syncIDs brings a stale ids vector up to date over c's live nodes, so
// that ids[v] == StateIndex(states[v]) for each; a fresh or absent
// vector costs one test. It returns ErrStateIndex, and leaves the vector
// stale, if a live node's state is out of StateIndex's range.
//
//fssga:hotpath
func (net *Network[S]) syncIDs(c *graph.CSR) error {
	if !net.idsStale {
		return nil
	}
	for v := range c.Cap() {
		if !c.Alive(v) {
			continue
		}
		id, ok := net.index(net.states[v])
		if !ok {
			return ErrStateIndex
		}
		net.ids[v] = id
	}
	net.idsStale = false
	return nil
}

// serialScratch returns the shared workspace of the serial execution
// paths (SyncRound, Activate, Quiescent, frontier rounds), creating it on
// first use.
//
//fssga:hotpath
func (net *Network[S]) serialScratch() *viewScratch[S] {
	if net.serial == nil {
		//fssga:alloc(one-time lazy construction of the shared serial workspace)
		net.serial = net.newScratch()
	}
	return net.serial
}

// ensureWorkers grows the per-worker scratch pool to at least n entries.
func (net *Network[S]) ensureWorkers(n int) {
	for len(net.workers) < n {
		net.workers = append(net.workers, net.newScratch())
	}
}
