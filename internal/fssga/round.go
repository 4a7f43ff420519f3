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
//     their neighbours — drained from the workers' mark sets;
//   - cuts it into contiguous chunks and steps them under supervision
//     (supervisor.go): inline on the round owner if there is one chunk,
//     as at one worker, else on the shard pool (shard.go), each chunk
//     appending its changes to its own buffer while σ stays untouched.
//     A worker that finds a change in a frontier round marks the node
//     and its row in its own bitset, while the row is in cache. A Step
//     that keeps panicking fails the round with a *PanicError, at any
//     worker count, so SyncRound too panics with one;
//   - commits the buffers in chunk order, so in node order: states
//     written back, the list and a frontier round's marks kept.
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
// changed nodes and their neighbours, in node order, as the last round
// marked it: O(|frontier| + n/4096) to drain and O(Σ deg(frontier)) to
// step, not a step of every node. A quiescent network re-probes in
// O(1). After a full round, an out-of-band state change, a failed round
// or a new snapshot, the round steps every node. Deterministic automata
// only.
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
// guarded by Quiescent; the first round may step every node (see
// SyncRoundFrontier).
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
// or (frontier) over the frontier the last committed round marked. A
// full round always commits and marks nothing; a frontier round marks
// its changes' closed neighbourhoods and commits only if some state
// changed, so a quiescent frontier round leaves Rounds alone and fires
// no OnRound. It reports whether any state changed. Errors are those of
// the supervisor (supervisor.go) and ErrConcurrentRound; on error no
// state is committed and the next frontier round steps every node.
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
	if frontier && net.drain(c) {
		work, size = net.work, len(net.work)
	}
	net.markedOn = nil // the buffers and marks are rewritten below and valid again only once stepped
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
		if err := net.stepSupervised(workers, c, work, size, span, bufs, frontier); err != nil {
			return false, err
		}
	}
	if frontier {
		net.markedOn = c
	}
	return net.commit(bufs, !frontier), nil
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

// stepChunk steps chunk k of the published round (net.poolRound), whose
// positions are node IDs themselves when the work set is nil. It writes
// every node whose successor differs from its state to the chunk's
// buffer, with the successor's id in the frozen palette, looked up only
// when the last change's successor differs. A frontier round also marks
// each such node and its row in the scratch's mark set. Dead and
// isolated nodes (empty CSR rows) are frozen.
//
//fssga:hotpath
func (net *Network[S]) stepChunk(sc *viewScratch[S], k int) {
	r := &net.poolRound
	c, work, frontier, lo := r.c, r.work, r.frontier, k*r.span
	hi, out := min(lo+r.span, r.size), r.bufs[k][:0]
	if frontier && len(sc.marks.words) == 0 {
		//fssga:alloc(a worker's mark set is made by its first frontier round, then reused for the network's lifetime)
		sc.marks = newNodeSet(c.Cap())
	}
	words, summary := sc.marks.words, sc.marks.summary
	sc.src.epoch = net.epoch()
	var id int32
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
			if n := len(out); n == 0 || out[n-1].s != s {
				id = net.pal.lookup(s)
			}
			//fssga:alloc(a chunk's change buffer grows to its largest change count once, then is reused at capacity)
			out = append(out, change[S]{v: int32(v), id: id, s: s})
			if frontier {
				mark(words, summary, int32(v))
				for _, u := range nbrs {
					mark(words, summary, u)
				}
			}
		}
	}
	r.bufs[k] = out
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

// drain empties every worker's mark set into net.work, merged in
// ascending node order, and reports whether the marks are the frontier
// of snapshot c: made on c by the last committed round, a frontier round,
// so that they are the closed neighbourhood of its change list. Marks
// that are not are discarded. An empty change list marked nothing, so a
// quiesced network drains in O(1).
//
//fssga:hotpath
func (net *Network[S]) drain(c *graph.CSR) bool {
	net.work = net.work[:0]
	quiet := net.markedOn == c
	for _, buf := range net.changes {
		quiet = quiet && len(buf) == 0
	}
	if quiet {
		return true
	}
	var all *nodeSet
	for _, sc := range net.workers {
		switch {
		case len(sc.marks.words) == 0:
		case all == nil:
			all = &sc.marks
		default:
			all.take(sc.marks)
		}
	}
	if all != nil {
		net.work = all.drain(net.work)
	}
	return net.markedOn == c
}

// nodeSet is a two-level bitset over node ids, carved from one
// allocation: bit v&63 of words[v>>6] marks node v, and bit i&63 of
// summary[i>>6] is set whenever words[i] is nonzero. Each worker marks
// the frontier it finds in its own set. A mark is two ORs; a take or a
// drain reads the n/4096 summary words and then only the marked words,
// and leaves every word of the set it empties zero.
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

// take moves t's marks into s, clearing each word of t it visits.
//
//fssga:hotpath
func (s nodeSet) take(t nodeSet) {
	for i, sum := range t.summary {
		if sum == 0 {
			continue
		}
		t.summary[i] = 0
		s.summary[i] |= sum
		for ; sum != 0; sum &= sum - 1 {
			w := i<<6 | bits.TrailingZeros64(sum)
			s.words[w] |= t.words[w]
			t.words[w] = 0
		}
	}
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
// change list. The round counts (Rounds, OnRound) if it changed a state
// or always is set.
//
//fssga:hotpath
func (net *Network[S]) commit(bufs [][]change[S], always bool) (changed bool) {
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
	net.changes = bufs
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
