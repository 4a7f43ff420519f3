package fssga

import "math/rand"

// The palette numbers the states that occur in a network, which is all
// Definition 3.10 needs numbered: each distinct state gets an id in
// order of first sight, and ids[v] is the id of states[v]. A view is
// built by id. buildView dedupes a node's neighbours through a slot
// vector indexed by ids[u], and reads a first-seen id's state from the
// small palette, not from the network-sized state vector.
//
// Ids never depend on the worker count. Pool workers only look a
// successor up in the palette, which is frozen for the round; a miss
// records -1, and commit interns the misses in change-list order, which
// is ascending node order in every round. For each id the palette
// counts the nodes that name it. New and
// RestoreStates only mark the ids stale, and the next round, Activate
// or Quiescent renumbers the palette from the node states (sync). It
// does the same once the palette holds more than twice its live ids
// plus paletteSlack, so a run that meets many more states than it keeps
// (a census) holds only about the states it keeps.

const (
	// paletteSlack is how many entries beyond twice its live ids a
	// palette may hold before it is renumbered.
	paletteSlack = 1024
	// paletteShrink bounds the room a renumbering keeps: past
	// paletteShrink times the live ids plus paletteSlack, the palette's
	// storage is reallocated at the live count instead of reused.
	paletteShrink = 8
)

// entry is one palette state and the number of nodes that name it.
type entry[S comparable] struct {
	s S
	n int32
}

// palette numbers states in order of first sight and counts each.
type palette[S comparable] struct {
	ent   []entry[S]  // ent[id]: the state with that id and its count
	index map[S]int32 // the id of every state in ent
	live  int         // ids whose count is positive
	last  int32       // the id intern returned last
}

// newPalette returns an empty palette with room for size states.
func newPalette[S comparable](size int) palette[S] {
	return palette[S]{ent: make([]entry[S], 0, size), index: make(map[S]int32, size)}
}

// intern returns s's id, numbering s next if the palette lacks it. A
// run of equal states, as in the initial states of most networks, costs
// one comparison each.
//
//fssga:hotpath
func (p *palette[S]) intern(s S) int32 {
	if int(p.last) < len(p.ent) && p.ent[p.last].s == s {
		return p.last
	}
	id, ok := p.index[s]
	if !ok {
		id = int32(len(p.ent))
		//fssga:alloc(the palette grows to the most states it holds between renumberings, then is reused at capacity)
		p.ent = append(p.ent, entry[S]{s: s})
		p.index[s] = id
	}
	p.last = id
	return id
}

// lookup returns s's id, or -1 if the palette lacks s. Pool workers
// call it concurrently on the palette frozen for the round.
//
//fssga:hotpath
func (p *palette[S]) lookup(s S) int32 {
	if id, ok := p.index[s]; ok {
		return id
	}
	return -1
}

// count adds d to the number of nodes that name id.
//
//fssga:hotpath
func (p *palette[S]) count(id, d int32) {
	e := &p.ent[id]
	if e.n == 0 {
		p.live++
	}
	e.n += d
	if e.n == 0 {
		p.live--
	}
}

// add counts n more occurrences of s and returns s's id.
func (p *palette[S]) add(s S, n int32) int32 {
	id := p.intern(s)
	p.count(id, n)
	return id
}

// roomy reports whether the palette's storage has room for many times
// its live ids.
func (p *palette[S]) roomy() bool { return cap(p.ent) > paletteShrink*p.live+paletteSlack }

// bloated reports whether the palette holds more than twice its live
// ids plus paletteSlack, so that the next sync renumbers it.
func (p *palette[S]) bloated() bool { return len(p.ent) > 2*p.live+paletteSlack }

// view returns a View with the palette's states as its present list
// and their counts as multiplicities.
func (p *palette[S]) view() *View[S] {
	v := &View[S]{present: make([]S, len(p.ent)), mult: make([]int32, len(p.ent))}
	for k, e := range p.ent {
		v.present[k], v.mult[k] = e.s, e.n
		v.total += int(e.n)
	}
	return v
}

// viewScratch is a per-worker reusable workspace for stepping nodes
// without allocating; each pool worker owns one, and the serial paths
// share the round owner's. Its View owns the buffers: the present list
// is reused at capacity, and a reset clears only the slots of the
// current view's states, so it never pays for an earlier, larger view.
// Its rand.Rand is the stream of the step in progress (rng.go).
type viewScratch[S comparable] struct {
	view    View[S]
	slot    []int32 // slot[id] is k+1 while view.present[k] has that id, else 0
	presIDs []int32 // presIDs[k] is the id of view.present[k], for the reset

	// rnd draws from src, which stream re-points for every step. It is
	// held by value so that every write of a step lands in this object.
	src keyedSource
	rnd rand.Rand

	marks nodeSet // the frontier this worker marked in a frontier round (round.go)

	// A pool worker writes its scratch on every step. The pad keeps
	// those writes off the cache lines of the next object in memory,
	// such as another worker's scratch (TestViewScratchPad).
	_ [64]byte
}

// newScratch allocates a workspace with a slot per palette entry the
// palette has room for, drawing from the network's streams.
func (net *Network[S]) newScratch() *viewScratch[S] {
	sc := &viewScratch[S]{src: keyedSource{seed: net.seed}}
	sc.resize(net.slots)
	sc.rnd = *rand.New(&sc.src)
	return sc
}

// resize gives the scratch a clear slot vector of n slots, so the last
// view's ids are nothing to reset. The vector has a cache line of
// unused slots on either side: every view build writes it, and sync
// allocates the vectors of all scratches one after another, so another
// worker's vector would otherwise share its first and last lines.
func (sc *viewScratch[S]) resize(n int) {
	const pad = 64 / 4
	sc.slot, sc.presIDs = make([]int32, n+2*pad)[pad:pad+n:pad+n], sc.presIDs[:0]
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

// reset empties the view under construction in O(its distinct states).
//
//fssga:hotpath
func (sc *viewScratch[S]) reset() {
	for _, i := range sc.presIDs {
		sc.slot[i] = 0
	}
	sc.presIDs = sc.presIDs[:0]
	sc.view.present = sc.view.present[:0]
	sc.view.mult = sc.view.mult[:0]
}

// push appends state s, whose id i the view has not seen yet, with
// multiplicity 1. Every first-seen state of every view goes through
// here.
//
//fssga:hotpath
func (sc *viewScratch[S]) push(s S, i int32) {
	v := &sc.view
	//fssga:alloc(present grows to the distinct-state count once, then is reused at capacity)
	v.present = append(v.present, s)
	//fssga:alloc(mult grows to the distinct-state count once, then is reused at capacity)
	v.mult = append(v.mult, 1)
	sc.slot[i] = int32(len(v.present))
	//fssga:alloc(presIDs grows to the distinct-state count once, then is reused at capacity)
	sc.presIDs = append(sc.presIDs, i)
}

// buildView assembles a node's symmetric view of the neighbours listed
// in nbrs (a CSR neighbour row) from the committed states into sc, in one
// linear scan keyed by the neighbours' ids: a repeated state costs one
// slot read and one increment, inline, and a first-seen id's state is
// read from its palette entry (network.go). The returned View aliases
// the scratch buffers: it is valid only until the next buildView on the
// same scratch, which is exactly the duration of one Step call.
//
//fssga:hotpath
func (net *Network[S]) buildView(sc *viewScratch[S], nbrs []int32) *View[S] {
	sc.reset()
	v := &sc.view
	ids, slot, ent := net.ids, sc.slot, net.pal.ent
	for _, u := range nbrs {
		i := ids[u]
		if k := slot[i]; k != 0 {
			v.mult[k-1]++
		} else {
			sc.push(ent[i].s, i)
		}
	}
	v.total = len(nbrs)
	return v
}

// sync readies the palette and the scratches for a step: it renumbers
// a stale or bloated palette and sizes every slot vector to the
// palette's capacity. On a current palette that fits, it costs a few
// tests.
//
//fssga:hotpath
func (net *Network[S]) sync() {
	p := &net.pal
	if net.stale || p.bloated() || cap(p.ent) != net.slots {
		//fssga:alloc(a renumbering reuses the palette's storage unless it is many times too large, and the slot vectors follow the palette's capacity, which grows by doubling)
		net.refit()
	}
}

// refit is sync's slow path.
func (net *Network[S]) refit() {
	p := &net.pal
	if net.stale || p.bloated() {
		// Renumber in node order, so ids do not depend on how the
		// palette grew.
		if p.index == nil || p.roomy() {
			*p = newPalette[S](p.live)
		} else {
			clear(p.index)
			p.ent, p.live = p.ent[:0], 0
		}
		for v, s := range net.states {
			net.ids[v] = p.add(s, 1)
		}
		net.stale = false
	}
	if net.slots != cap(p.ent) {
		net.slots = cap(p.ent)
		for _, sc := range net.workers {
			sc.resize(net.slots)
		}
	}
}

// serialScratch returns the round owner's workspace, worker 0's, which
// the serial execution paths (Activate, Quiescent, one-chunk rounds)
// share, creating it on first use.
//
//fssga:hotpath
func (net *Network[S]) serialScratch() *viewScratch[S] {
	if len(net.workers) == 0 {
		//fssga:alloc(one-time lazy construction of the round owner's workspace)
		net.ensureWorkers(1)
	}
	return net.workers[0]
}

// ensureWorkers grows the per-worker scratch pool to at least n entries.
func (net *Network[S]) ensureWorkers(n int) {
	for len(net.workers) < n {
		net.workers = append(net.workers, net.newScratch())
	}
}
