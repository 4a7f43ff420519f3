package fssga

import (
	"fmt"
	"math/rand"
)

// DenseAutomaton is an optional extension of Automaton for automata whose
// state space admits a small dense enumeration. When the automaton handed
// to New implements it (and NumStates is within MaxDenseStates), the
// engine finds a neighbour state's place in the View through a reusable
// []int32 slot vector indexed by StateIndex instead of a hash map lookup.
// Automata that do not implement it run unchanged on map views.
//
// Contract: StateIndex must be a pure function, safe for concurrent use,
// and must return a value in [0, NumStates()) for every state that can
// occur in the network (initial states and everything Step can produce);
// the engine panics on an out-of-range index for an observed neighbour
// state. Distinct states must map to distinct indices, otherwise their
// multiplicities merge and observations are silently wrong. NumStates
// must be constant over the automaton's lifetime. Results are
// bit-identical to map views: both build the same present list, and a
// View's observations are functions of the multiplicities only.
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
	if net.denseAuto == nil {
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
func (sc *viewScratch[S]) push(s S, i int, n int32) {
	v := &sc.view
	//fssga:alloc(present grows to the distinct-state count once, then is reused at capacity)
	v.present = append(v.present, s)
	//fssga:alloc(mult grows to the distinct-state count once, then is reused at capacity)
	v.mult = append(v.mult, n)
	if v.slot != nil {
		v.slot[i] = int32(len(v.present))
		//fssga:alloc(presIdx grows to the distinct-state count once, then is reused at capacity)
		sc.presIdx = append(sc.presIdx, int32(i))
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
// in nbrs (a CSR neighbour row) from snapshot into sc, in one linear
// scan: a repeated state costs one lookup and one increment, inline;
// only first-seen states call push. The returned View aliases the
// scratch buffers: it is valid only until the next buildView on the
// same scratch, which is exactly the duration of one Step call.
//
//fssga:hotpath
func (net *Network[S]) buildView(sc *viewScratch[S], nbrs []int32, snapshot []S) *View[S] {
	sc.reset()
	v := &sc.view
	if slot := v.slot; slot != nil {
		for _, u := range nbrs {
			s := snapshot[u]
			//fssga:alloc(StateIndex is a table lookup by the DenseAutomaton contract; dispatch through the stored func value)
			i := net.idx(s)
			if i < 0 || i >= len(slot) {
				panic(fmt.Sprintf("fssga: StateIndex returned %d for an observed state, want 0..%d", i, len(slot)-1))
			}
			if k := slot[i]; k != 0 {
				v.mult[k-1]++
			} else {
				sc.push(s, i, 1)
			}
		}
	} else {
		for _, u := range nbrs {
			s := snapshot[u]
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
