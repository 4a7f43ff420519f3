package fssga

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// The round kernel. The synchronous model (Def. 3.11) is one operation:
// every live node computes its successor from the committed states σ,
// then all nodes switch at once. Every public round entry point is one
// call of round, which
//
//   - takes a work set: every node, or the frontier — the nodes the last
//     committed change list touched, plus their neighbours;
//   - cuts it into contiguous chunks and steps them inline (one worker or
//     one chunk) or on the shard pool (shard.go), each chunk appending its
//     changes to its own buffer while σ stays untouched;
//   - commits the buffers in chunk order: states written back, hub
//     aggregate leaves marked, the list kept as the next frontier.
//
// For a deterministic automaton a node's successor can differ from its
// state only if the node or a neighbour changed last round, so frontier
// rounds reproduce the full-round trajectory exactly while quiesced
// regions cost nothing. A node stepped by a full round consumes its
// random stream; frontier rounds skip nodes, so they are for
// deterministic automata only.

// SyncRound performs one synchronous round: every live node computes its
// successor state from the same snapshot σ, then all states switch
// simultaneously (Section 3.4's synchronous model).
//
//fssga:hotpath
func (net *Network[S]) SyncRound() { net.mustRound(1, false) }

// SyncRoundFrontier performs one frontier-driven synchronous round and
// reports whether any state changed. A false return means the network
// was already quiescent and nothing was committed: Rounds is not
// incremented and OnRound does not fire, so a run driven by
// SyncRoundFrontier counts exactly the rounds a SyncRound loop guarded by
// Quiescent would have executed. The round costs O(|frontier| +
// Σ deg(frontier)), not O(n); a quiescent network re-probes in O(1).
// Deterministic automata only.
//
//fssga:hotpath
func (net *Network[S]) SyncRoundFrontier() (changed bool) { return net.mustRound(1, true) }

// SyncRoundParallel is SyncRound on the shard pool with the given number
// of workers. Every node has a private random stream and reads only the
// snapshot, so the result is bit-identical to SyncRound for any worker
// count. A worker panic is recovered and the round retried (see
// supervisor.go); only after retry exhaustion does the structured
// *PanicError propagate as a panic. TrySyncRoundParallel returns it
// instead.
func (net *Network[S]) SyncRoundParallel(workers int) { net.mustRound(workers, false) }

// TrySyncRoundParallel is SyncRoundParallel returning errors instead of
// panicking: ErrConcurrentRound if another round is in flight on this
// network, or a *PanicError if a worker panic survived every supervised
// retry. On error the network is unchanged: still on its last committed
// round, RNG streams rewound.
func (net *Network[S]) TrySyncRoundParallel(workers int) error {
	_, err := net.round(workers, false)
	return err
}

// SyncRoundParallelFrontier is SyncRoundFrontier on the shard pool: same
// trajectory, same commit rule, same supervision as SyncRoundParallel.
// A frontier that fits one chunk, a quiescent one included, is stepped
// inline without waking the pool. Deterministic automata only.
func (net *Network[S]) SyncRoundParallelFrontier(workers int) (changed bool) {
	return net.mustRound(workers, true)
}

// RunSync runs synchronous rounds until done returns true (checked after
// each round) or maxRounds is reached. It reports the number of rounds run
// and whether done fired. A nil done runs to the round limit.
func (net *Network[S]) RunSync(maxRounds int, done func(net *Network[S]) bool) (rounds int, finished bool) {
	for r := 0; r < maxRounds; r++ {
		net.SyncRound()
		if done != nil && done(net) {
			return r + 1, true
		}
	}
	return maxRounds, done == nil
}

// RunSyncUntilQuiescent runs frontier rounds until one changes no state,
// up to maxRounds. For deterministic automata only. The resulting states,
// round counts and OnRound invocations are identical to a full-round loop
// guarded by Quiescent.
func (net *Network[S]) RunSyncUntilQuiescent(maxRounds int) (rounds int, finished bool) {
	for r := 0; r < maxRounds; r++ {
		if !net.SyncRoundFrontier() {
			return r, true
		}
	}
	return maxRounds, net.Quiescent()
}

// change is one node's successor state, buffered by the chunk that
// computed it until the round commits.
type change[S comparable] struct {
	v int32
	s S
}

// round runs one synchronous round on workers workers, over every node
// or (frontier) over the frontier of the last committed change list. A
// full round always commits; a frontier round commits only if some state
// changed, so a quiescent frontier round leaves Rounds alone and fires no
// OnRound. It reports whether any state changed. Errors are those of the
// supervisor (supervisor.go) and ErrConcurrentRound; on error no state is
// committed and the next frontier round steps every node.
//
//fssga:hotpath
func (net *Network[S]) round(workers int, frontier bool) (bool, error) {
	if workers < 1 {
		panic(fmt.Sprintf("fssga: a synchronous round needs workers >= 1, got %d", workers))
	}
	if !net.roundActive.CompareAndSwap(false, true) {
		return false, ErrConcurrentRound
	}
	defer net.roundActive.Store(false)
	net.beforeRound() // exactly once, even across supervised retries
	c := net.prepare()
	size := c.Cap()
	var work []int32 // nil: every node
	if frontier && net.changedOn == c {
		work = net.frontier(c)
		size = len(work)
	}
	net.changedOn = nil // the buffers are rewritten below and valid again only at commit

	span := size
	if workers > 1 {
		span = shardSpan(size, workers)
	}
	chunks := 0
	if size > 0 {
		chunks = (size + span - 1) / span
	}
	bufs := net.chunkBuffers(chunks)
	switch {
	case chunks == 1:
		bufs[0] = net.stepChunk(net.serialScratch(), c, work, 0, size, bufs[0][:0])
	case chunks > 1:
		//fssga:alloc(the pool executor allocates its worker closures once per multi-chunk round; single-chunk rounds run inline without it)
		if err := net.stepOnPool(workers, c, work, size, span, bufs); err != nil {
			return false, err
		}
	}
	return net.commit(c, bufs, !frontier), nil
}

// mustRound is round for the entry points that report errors by
// panicking.
//
//fssga:hotpath
func (net *Network[S]) mustRound(workers int, frontier bool) bool {
	changed, err := net.round(workers, frontier)
	if err != nil {
		panic(err)
	}
	return changed
}

// prepare reads the topology snapshot a round or probe runs on and
// brings the hub aggregation metadata up to date for it, serially,
// before any view is built.
//
//fssga:hotpath
func (net *Network[S]) prepare() *graph.CSR {
	c := net.topo()
	//fssga:alloc(ensureAgg builds the aggregation tree once per topology snapshot, amortized over all rounds)
	net.ensureAgg(c)
	return c
}

// step computes node v's successor state from the committed states: the
// one per-node step shared by rounds, activations and the quiescence
// probe, so all of them see identical views.
//
//fssga:hotpath
func (net *Network[S]) step(sc *viewScratch[S], v int, nbrs []int32, rng *rand.Rand) S {
	view := net.viewFor(sc, v, nbrs, net.states)
	//fssga:alloc(Step is automaton-interface dispatch; each automaton's Step is vetted separately)
	return net.auto.Step(net.states[v], view, rng)
}

// stepChunk steps work-set positions [lo, hi) — node IDs themselves when
// work is nil — and appends every node whose successor differs from its
// state to out. Dead and isolated nodes (empty CSR rows) are frozen.
//
//fssga:hotpath
func (net *Network[S]) stepChunk(sc *viewScratch[S], c *graph.CSR, work []int32, lo, hi int, out []change[S]) []change[S] {
	for i := lo; i < hi; i++ {
		v := i
		if work != nil {
			v = int(work[i])
		}
		nbrs := c.Neighbors(v)
		if len(nbrs) == 0 {
			continue
		}
		if s := net.step(sc, v, nbrs, net.rngs[v]); s != net.states[v] {
			//fssga:alloc(a chunk's change buffer grows to its largest change count once, then is reused at capacity)
			out = append(out, change[S]{v: int32(v), s: s})
		}
	}
	return out
}

// chunkBuffers returns the round's per-chunk change buffers, keeping the
// capacity every buffer reached in earlier rounds.
//
//fssga:hotpath
func (net *Network[S]) chunkBuffers(chunks int) [][]change[S] {
	if cap(net.changes) < chunks {
		//fssga:alloc(the buffer table grows to the largest chunk count once, then is reused at capacity)
		grown := make([][]change[S], chunks)
		copy(grown, net.changes[:cap(net.changes)])
		net.changes = grown
	}
	return net.changes[:chunks]
}

// frontier derives the work set of a frontier round from the last
// committed change list: every changed node and each of its neighbours,
// once, in change-list order.
//
//fssga:hotpath
func (net *Network[S]) frontier(c *graph.CSR) []int32 {
	if len(net.mark) != c.Cap() {
		//fssga:alloc(the mark array is rebuilt once per topology size change, amortized over all rounds)
		net.mark = make([]bool, c.Cap())
	}
	work := net.work[:0]
	add := func(u int32) {
		if !net.mark[u] {
			net.mark[u] = true
			//fssga:alloc(the work set grows to the largest frontier once, then is reused at capacity)
			work = append(work, u)
		}
	}
	for _, buf := range net.changes {
		for _, ch := range buf {
			add(ch.v)
			for _, u := range c.Neighbors(int(ch.v)) {
				add(u)
			}
		}
	}
	for _, v := range work {
		net.mark[v] = false
	}
	net.work = work
	return work
}

// commit applies the chunk buffers in chunk order and keeps them as the
// change list the next frontier derives from. The round counts (Rounds,
// OnRound) if it changed a state or always is set.
//
//fssga:hotpath
func (net *Network[S]) commit(c *graph.CSR, bufs [][]change[S], always bool) (changed bool) {
	aggOn := net.aggActive()
	for _, buf := range bufs {
		for _, ch := range buf {
			net.states[ch.v] = ch.s
			if aggOn {
				net.agg.noteChanged(ch.v)
			}
		}
		changed = changed || len(buf) > 0
	}
	net.changes, net.changedOn = bufs, c
	if !changed && !always {
		return false
	}
	net.Rounds++
	if net.OnRound != nil {
		//fssga:alloc(user hook runs outside the zero-alloc contract; nil in steady-state runs)
		net.OnRound(net.Rounds)
	}
	return changed
}
