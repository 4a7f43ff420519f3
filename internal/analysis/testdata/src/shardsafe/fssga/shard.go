// Package fssga is a stand-in for the engine's shard pool, shaped so
// the shardsafe fixtures can build worker round bodies — function
// literals and methods of the form func(pool *shardPool, worker int) —
// with every ownership violation the analyzer must catch and the clean
// idioms it must accept.
package fssga

const shardSpan = 64

type shardPool struct{ claimed int }

// claim stands in for the atomic cursor: its results are the only
// shard-derived values.
func (p *shardPool) claim() int {
	p.claimed++
	return p.claimed - 1
}

type scratch struct{ dense []int }

type network struct {
	states  []int
	next    []int
	workers []scratch
	epoch   int
}

var roundCounter int

func runSupervised(workers int, body func(pool *shardPool, worker int)) {
	p := &shardPool{}
	for w := 0; w < workers; w++ {
		body(p, w)
	}
}

// goodRound is the engine's real write discipline: claim a shard off the
// pool, clamp it, copy the claimed slice of the snapshot forward, store
// into next only at claimed indices, and stage per-worker work in a
// structure reached through the worker index.
func (net *network) goodRound(workers int) {
	snapshot, next := net.states, net.next
	runSupervised(workers, func(pool *shardPool, w int) {
		sc := net.workers[w]
		for {
			s := pool.claim()
			lo := s * shardSpan
			if lo >= len(snapshot) {
				return
			}
			hi := lo + shardSpan
			if hi > len(snapshot) {
				hi = len(snapshot)
			}
			copy(next[lo:hi], snapshot[lo:hi])
			for v := lo; v < hi; v++ {
				sc.dense[0] = v
				next[v] = snapshot[v] + 1
			}
		}
	})
}

// badRound collects the violations: unclaimed-index stores, snapshot
// writes, retained scratch, global writes, and unbounded copies.
func (net *network) badRound(workers int) {
	snapshot, next := net.states, net.next
	var keep []int
	runSupervised(workers, func(pool *shardPool, w int) {
		s := pool.claim()
		lo := s * shardSpan
		next[0] = snapshot[0] // want `store into captured "next" at an index not derived from the worker's claimed shard range`
		snapshot[lo] = 7      // want `write to the read-side snapshot "snapshot" inside a worker round body`
		net.states[lo] = 9    // want `write to the read-side snapshot "net" inside a worker round body`
		keep = next[lo:]      // want `captured "keep" is reassigned inside a worker round body`
		roundCounter++        // want `write to package-level variable "roundCounter" inside a worker round body`
		copy(next, snapshot)  // want `copy into captured "next" without shard-derived bounds`
		net.epoch = s         // want `write to field of captured "net" inside a worker round body`
	})
	_ = keep
}

// curRound pins the cur spelling of the read side and a store indexed by
// a plain loop variable never derived from the claim.
func (net *network) curRound(workers int) {
	cur, next := net.states, net.next
	runSupervised(workers, func(pool *shardPool, w int) {
		_ = pool.claim()
		cur[0] = 1 // want `write to the read-side snapshot "cur" inside a worker round body`
		for v := 0; v < len(cur); v++ {
			next[v] = cur[v] // want `store into captured "next" at an index not derived from the worker's claimed shard range`
		}
	})
}

// chunked is a network whose worker body is a method, bound as a
// method value as the engine binds its pool body once per network: the
// receiver is captured state, stored into only at claimed indices or
// through the worker's scratch.
type chunked struct {
	states  []int
	workers []scratch
	epoch   int
	bufs    [][]int
}

func (net *chunked) stepChunks(pool *shardPool, w int) {
	sc := net.workers[w]
	for {
		k := pool.claim()
		if k >= len(net.bufs) {
			return
		}
		sc.dense[0] = k
		net.bufs[k] = net.bufs[k][:0]
	}
}

// badChunks is the method-shaped twin of badRound.
func (net *chunked) badChunks(pool *shardPool, w int) {
	k := pool.claim()
	net.bufs[0] = nil // want `store into captured "net" at an index not derived from the worker's claimed shard range`
	net.states[k] = 1 // want `write to the read-side snapshot "net" inside a worker round body`
	net.epoch = k     // want `write to field of captured "net" inside a worker round body`
	roundCounter = w  // want `write to package-level variable "roundCounter" inside a worker round body`
}

func (net *chunked) run(workers int) {
	runSupervised(workers, net.stepChunks)
	runSupervised(workers, net.badChunks)
}

// aliased is a network whose worker bodies store through body-local
// aliases of captured state. Each store is checked as a store through
// the captured name: a claimed index passes, an unclaimed one or a
// snapshot write does not, and a slice formed at claimed indices is the
// claim's own.
type aliased struct {
	states []int
	next   []int
	bufs   [][]int
}

func (net *aliased) aliasRound(workers int) {
	next := net.next
	runSupervised(workers, func(pool *shardPool, w int) {
		k := pool.claim()
		b, s, n := net.bufs, net.states, next
		b[k] = nil
		n[k] = 1
		row := next[k : k+1]
		row[0] = 1
		b[0] = nil // want `store into "b", which aliases captured state, at an index not derived from the worker's claimed shard range`
		s[1] = 2   // want `write to the read-side snapshot "s" inside a worker round body`
		n[0] = 1   // want `store into "n", which aliases captured state, at an index not derived from the worker's claimed shard range`
		m := n
		m[0] = 1   // want `store into "m", which aliases captured state, at an index not derived from the worker's claimed shard range`
		copy(n, s) // want `copy into "n", which aliases captured state, without shard-derived bounds`
	})
	runSupervised(workers, net.aliasChunks)
}

// aliasChunks is the method-shaped twin of aliasRound.
func (net *aliased) aliasChunks(pool *shardPool, w int) {
	k := pool.claim()
	b := net.bufs
	s := net.states
	n := net.next
	b[k] = nil
	n[k] = 1
	b[0] = nil // want `store into "b", which aliases captured state, at an index not derived from the worker's claimed shard range`
	s[1] = 2   // want `write to the read-side snapshot "s" inside a worker round body`
	n[0] = 1   // want `store into "n", which aliases captured state, at an index not derived from the worker's claimed shard range`
}
