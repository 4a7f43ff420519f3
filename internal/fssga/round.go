package fssga

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// The round kernel. The synchronous model (Def. 3.11) is one operation:
// every live node computes its successor from the committed states σ,
// then all nodes switch at once. Every public round entry point is one
// call of round, which
//
//   - takes a work set in ascending node order: every node, or the
//     frontier — the nodes the last committed change list touched, plus
//     their neighbours, marked in a two-level bitset and drained from it;
//   - cuts it into contiguous chunks and steps them under supervision
//     (supervisor.go): inline on the round owner if there is one chunk,
//     as at one worker, else on the shard pool (shard.go), each chunk
//     appending its changes to its own buffer while σ stays untouched.
//     A Step that keeps panicking fails the round with a *PanicError, at
//     any worker count, so SyncRound too panics with one;
//   - commits the buffers in chunk order, so in node order: states
//     written back, the list kept as the next frontier.
//
// For a deterministic automaton a node's successor can differ from its
// state only if the node or a neighbour changed last round, so frontier
// rounds reproduce the full-round trajectory exactly while quiesced
// regions cost nothing. Every successor is an order-invariant fold of σ,
// so the frontier may be stepped in any order; node order keeps each
// round's row, state and id reads moving forward through memory. A
// randomized node can change with no change around it, so frontier
// rounds are for deterministic automata only.

// SyncRound performs one synchronous round: every live node computes its
// successor state from the same snapshot σ, then all states switch
// simultaneously (Section 3.4's synchronous model). A Step panic that
// survives every supervised retry panics as a *PanicError.
//
//fssga:hotpath
func (net *Network[S]) SyncRound() { net.mustRound(1, false) }

// SyncRoundFrontier performs one frontier-driven synchronous round and
// reports whether any state changed. A false return means the network
// was already quiescent and nothing was committed: Rounds is not
// incremented and OnRound does not fire, so a run driven by
// SyncRoundFrontier counts exactly the rounds a SyncRound loop guarded by
// Quiescent would have executed. The round steps the frontier, the
// changed nodes and their neighbours, in node order: deriving it costs
// O(Σ deg(changed) + |frontier| + n/4096) and stepping it
// O(Σ deg(frontier)), not a step of every node. A quiescent network
// re-probes in O(1). Deterministic automata only.
//
//fssga:hotpath
func (net *Network[S]) SyncRoundFrontier() (changed bool) { return net.mustRound(1, true) }

// SyncRoundParallel is SyncRound on the shard pool with the given number
// of workers. Every step draws from its own stream and reads only the
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
// round, whose epoch names the streams a retry draws again.
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

// change is one node's successor state and its palette id, -1 if the
// palette frozen for the round lacks it, buffered by the chunk that
// computed it until the round commits.
type change[S comparable] struct {
	v  int32
	id int32
	s  S
}

// round runs one synchronous round on workers workers, over every node
// or (frontier) over the frontier of the last committed change list. A
// full round always commits; a frontier round commits only if some state
// changed, so a quiescent frontier round leaves Rounds alone and fires no
// OnRound. It reports whether any state changed. Errors are those of the
// supervisor (supervisor.go) and ErrConcurrentRound; on error no state
// is committed and the next frontier round steps every node.
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
	c := net.topo()
	size := c.Cap()
	var work []int32 // nil: every node
	if frontier && net.changedOn == c {
		work = net.frontier(c)
		size = len(work)
	}
	net.changedOn = nil // the buffers are rewritten below and valid again only at commit
	net.sync()

	span := size
	if workers > 1 {
		span = shardSpan(size, workers)
	}
	chunks := 0
	if size > 0 {
		chunks = (size + span - 1) / span
	}
	bufs := net.chunkBuffers(chunks)
	if chunks > 0 { // an empty frontier has nothing to step
		//fssga:alloc(the shard pool and its bound body are made once per network, and again only when a round asks for more workers; a supervised round itself allocates nothing unless a Step panics)
		if err := net.stepSupervised(workers, c, work, size, span, bufs); err != nil {
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

// step computes node v's successor state from the committed states, on
// v's stream at the scratch's epoch: the one per-node step shared by
// rounds, activations and the quiescence probe, so all of them see
// identical views and draws.
//
//fssga:hotpath
func (net *Network[S]) step(sc *viewScratch[S], v int, nbrs []int32) S {
	view := net.buildView(sc, nbrs)
	//fssga:alloc(Step is automaton-interface dispatch; each automaton's Step is vetted separately)
	return net.auto.Step(net.states[v], view, sc.stream(v))
}

// stepChunk steps work-set positions [lo, hi) — node IDs themselves when
// work is nil — and appends every node whose successor differs from its
// state to out, with the successor's id in the frozen palette. Dead and
// isolated nodes (empty CSR rows) are frozen.
//
//fssga:hotpath
func (net *Network[S]) stepChunk(sc *viewScratch[S], c *graph.CSR, work []int32, lo, hi int, out []change[S]) []change[S] {
	sc.src.epoch = net.epoch()
	for i := lo; i < hi; i++ {
		v := i
		if work != nil {
			v = int(work[i])
		}
		nbrs := c.Neighbors(v)
		if len(nbrs) == 0 {
			continue
		}
		if s := net.step(sc, v, nbrs); s != net.states[v] {
			//fssga:alloc(a chunk's change buffer grows to its largest change count once, then is reused at capacity)
			out = append(out, change[S]{v: int32(v), id: net.pal.lookup(s), s: s})
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
// once, in ascending node order. An empty list returns at once, so a
// quiesced network re-probes in O(1); otherwise the cost is
// O(Σ deg(changed) + |frontier| + n/4096).
//
//fssga:hotpath
func (net *Network[S]) frontier(c *graph.CSR) []int32 {
	net.work = net.work[:0]
	empty := true
	for _, buf := range net.changes {
		empty = empty && len(buf) == 0
	}
	if empty {
		return net.work
	}
	if len(net.front.words) != (c.Cap()+63)>>6 {
		//fssga:alloc(the bitset is rebuilt once per topology size change, amortized over all rounds)
		net.front = newNodeSet(c.Cap())
	}
	words, summary := net.front.words, net.front.summary
	for _, buf := range net.changes {
		for _, ch := range buf {
			mark(words, summary, ch.v)
			for _, u := range c.Neighbors(int(ch.v)) {
				mark(words, summary, u)
			}
		}
	}
	net.work = net.front.drain(net.work)
	return net.work
}

// nodeSet is a two-level bitset over node ids, carved from one
// allocation: bit v&63 of words[v>>6] marks node v, and bit i&63 of
// summary[i>>6] is set whenever words[i] is nonzero. A mark is two ORs;
// a drain reads the n/4096 summary words and then only the marked
// words, and leaves every word zero.
type nodeSet struct {
	words   []uint64
	summary []uint64
}

// newNodeSet returns an empty set over n nodes.
func newNodeSet(n int) nodeSet {
	nw := (n + 63) >> 6
	all := make([]uint64, nw+(nw+63)>>6)
	return nodeSet{words: all[:nw:nw], summary: all[nw:]}
}

// mark marks node v in a nodeSet's words and summary. It takes the two
// slices, not the nodeSet: a nodeSet receiver is copied through the
// stack on every call, which made the marks of a 2²⁰-node power-law
// frontier about a quarter slower.
//
//fssga:hotpath
func mark(words, summary []uint64, v int32) {
	words[v>>6] |= 1 << (v & 63)
	summary[v>>12] |= 1 << ((v >> 6) & 63)
}

// drain appends the marked nodes to out in ascending order and unmarks
// them, clearing each word it visits.
//
//fssga:hotpath
func (s nodeSet) drain(out []int32) []int32 {
	words, summary := s.words, s.summary
	for i, sum := range summary {
		if sum == 0 {
			continue
		}
		summary[i] = 0
		for ; sum != 0; sum &= sum - 1 {
			w := i<<6 | bits.TrailingZeros64(sum)
			word := words[w]
			words[w] = 0
			for ; word != 0; word &= word - 1 {
				//fssga:alloc(the work set grows to the largest frontier once, then is reused at capacity)
				out = append(out, int32(w<<6|bits.TrailingZeros64(word)))
			}
		}
	}
	return out
}

// commit applies the chunk buffers in chunk order, states and ids,
// interning the successors the frozen palette lacked in that order. The
// work set ascends and chunks cut it in order, so that is node order and
// ids do not depend on the worker count. It keeps the buffers as the
// change list the next frontier derives from. The round counts (Rounds,
// OnRound) if it changed a state or always is set.
//
//fssga:hotpath
func (net *Network[S]) commit(c *graph.CSR, bufs [][]change[S], always bool) (changed bool) {
	for _, buf := range bufs {
		for _, ch := range buf {
			id := ch.id
			if id < 0 {
				id = net.pal.intern(ch.s)
			}
			net.set(int(ch.v), ch.s, id)
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
