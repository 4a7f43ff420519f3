package fssga

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/graph"
)

// The shard pool: the round kernel's multi-worker executor (round.go).
// The synchronous model is embarrassingly parallel — every node's
// successor state is a function of the committed snapshot σ only
// (Pritchard's divide-and-conquer observation for symmetric FSAs:
// order-invariant folds partition over disjoint node sets with no
// cross-worker coordination) — so a round's work set is cut into
// contiguous chunks that the pool's workers claim off an atomic cursor:
//
//   - each chunk appends its changes to its own buffer, so workers share
//     nothing but the read-only snapshot;
//   - the round owner, the goroutine that called the round, is worker 0
//     and steps chunks too, so a w-worker pool runs only w − 1 helper
//     goroutines, and no goroutine is spawned per round;
//   - a helper that finishes a round polls for the next one for a short,
//     bounded spin before it parks on its wake channel, and the owner
//     waits on an atomic count of the helpers still in the round, so
//     back-to-back rounds wake no parked goroutine;
//   - work stealing over ~8 chunks per worker absorbs degree skew
//     without changing results: whichever worker claims a chunk, the
//     per-step streams (rng.go) and the snapshot make the outcome
//     bit-identical to serial execution, and commit applies the buffers
//     in chunk order.
const (
	// shardAlign is the chunk granularity in work-set positions: chunks
	// are multiples of it and never shorter, so a claim off the shared
	// cursor always buys at least 64 node steps.
	shardAlign = 64
	// shardsPerWorker over-partitions the work set so the atomic-cursor
	// work stealing can rebalance uneven chunks (degree skew, dead
	// regions, hubs).
	shardsPerWorker = 8
	// helperSpin is how many times a helper polls for the next round,
	// yielding the processor between polls, before it parks. It is
	// counted in polls, not wall time, and must outlast the serial gap
	// between two rounds (the commit and the caller's stop check, about
	// 15–20 µs): 512 yields take 70–100 µs on a 2-CPU host, while 64
	// ran no faster than parking at once (EXPERIMENTS.md, "Two-worker
	// rounds without a thread wake").
	helperSpin = 512
)

// shardSpan returns the chunk length for a work set of n positions and
// the given worker count: roughly shardsPerWorker chunks per worker,
// rounded up to the granularity.
func shardSpan(n, workers int) int {
	span := (n + workers*shardsPerWorker - 1) / (workers * shardsPerWorker)
	span = (span + shardAlign - 1) / shardAlign * shardAlign
	if span < shardAlign {
		span = shardAlign
	}
	return span
}

// shardPool executes one round body at a time on workers workers: the
// round owner as worker 0 and helper goroutines numbered 1 to
// workers − 1. round() publishes the body by bumping the round
// generation and offering each helper a wake token, steps the owner's
// share, and waits until no helper is still in the body. Between rounds
// a helper spins on the generation (helperSpin polls), then parks on its
// wake channel. The pool is created lazily by the first multi-chunk
// round, grows if a later round asks for more workers, and lives as long
// as its network (ensurePool). Only the round owner calls round(), and
// roundActive admits one owner at a time.
//
// The pool is panic-safe: a body panic is recovered in the share that
// raised it (a helper survives and keeps serving rounds), the first
// panic of a round is recorded, and round() reports it to the supervisor
// (supervisor.go), which discards and retries the round.
type shardPool struct {
	workers int             // round participants, the owner included
	wake    []chan struct{} // one per helper: wake[i] is worker i+1's
	stop    chan struct{}
	gen     atomic.Uint64 // round generation: bumped once per published round
	busy    atomic.Int32  // helpers still in the current round's body
	cursor  atomic.Int64  // next chunk index to claim
	body    func(pool *shardPool, worker int)
	perr    atomic.Pointer[workerPanic] // first panic of the current round
}

// workerPanic records one recovered worker panic.
type workerPanic struct {
	worker int
	value  any
	stack  string
}

// wakeChanCap is the wake-channel buffer: one slot, so the round owner
// can hand a helper its token without a rendezvous. A helper that caught
// a round by spinning leaves that round's token in the buffer, so the
// owner may find it full when it offers the next one; dropping the new
// token is then correct, because the helper drains the old one and
// re-checks the generation before it parks again.
const wakeChanCap = 1

func newShardPool(workers int) *shardPool {
	p := &shardPool{
		workers: workers,
		wake:    make([]chan struct{}, workers-1),
		stop:    make(chan struct{}),
	}
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, wakeChanCap)
		go p.help(i + 1)
	}
	return p
}

// help is helper id's loop. It runs every round the generation
// publishes, exactly once: the owner publishes the next round only after
// this helper has left the body of the last one. After a round it polls
// the generation for helperSpin polls, yielding between them, and then
// parks. Any token it wakes on, fresh or stale, sends it back to the
// generation check, so a round published while it parked is never
// missed: the owner bumps the generation before it offers the token.
func (p *shardPool) help(id int) {
	wake := p.wake[id-1]
	var seen uint64 // the last generation this helper ran
	for {
		if g := p.gen.Load(); g != seen {
			seen = g
			p.share(id)
			p.busy.Add(-1)
			for i := 0; i < helperSpin && p.gen.Load() == seen; i++ {
				runtime.Gosched()
			}
			continue
		}
		select {
		case <-p.stop:
			return
		case <-wake:
		}
	}
}

// share runs the published round body as worker id, converting a panic
// into a recorded workerPanic, so that the caller always goes on to the
// barrier.
func (p *shardPool) share(id int) {
	defer func() {
		if wp := recovered(id, recover()); wp != nil {
			p.perr.CompareAndSwap(nil, wp)
		}
	}()
	p.body(p, id)
}

// recovered records the value a deferred recover returned in worker id,
// with the panicking goroutine's stack; nil when there was no panic.
func recovered(id int, r any) *workerPanic {
	if r == nil {
		return nil
	}
	return &workerPanic{worker: id, value: r, stack: string(debug.Stack())}
}

// round runs body(pool, worker) on every pool worker, the caller as
// worker 0, and returns once all are done. It returns the first
// recovered panic, nil for a clean round. The body and the panic are
// dropped afterwards: the pool is reachable from its network's cleanup,
// so anything it kept that points back into the network would keep the
// network alive for good.
func (p *shardPool) round(body func(pool *shardPool, worker int)) *workerPanic {
	p.body = body
	p.busy.Store(int32(len(p.wake)))
	p.gen.Add(1) // publishes the body, the cursor and the count
	for _, ch := range p.wake {
		// A spinning helper sees the generation without the token, and
		// its buffer may still hold the token of a round it caught that
		// way; the default branch drops the new token then, so the round
		// owner never parks on a helper's wake channel
		// (TestWakeHandoffNeverBlocks).
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	p.share(0)
	for p.busy.Load() != 0 {
		runtime.Gosched()
	}
	p.body = nil
	return p.perr.Swap(nil)
}

// close stops the helper goroutines. It runs once per pool: from the
// network's cleanup, or from ensurePool when a bigger pool replaces it.
func (p *shardPool) close() { close(p.stop) }

// ensurePool returns a live pool with at least `workers` workers,
// creating or growing it as needed, and sizes the per-worker view
// scratch to match. The first call binds the pool body, stepChunks, for
// the network's lifetime. Each pool is tied to the network's lifetime
// by a runtime cleanup: pool goroutines reference only the pool, never
// the network, so the cleanup runs once the network is unreachable and
// closes the pool. An unreachable network has no round in flight. A
// replaced pool's cleanup is stopped before the pool is closed, so no
// pool is closed twice.
func (net *Network[S]) ensurePool(workers int) *shardPool {
	if net.pool == nil || net.pool.workers < workers {
		if net.pool != nil {
			net.poolCleanup.Stop()
			net.pool.close()
		}
		net.pool = newShardPool(workers)
		net.poolCleanup = runtime.AddCleanup(net, (*shardPool).close, net.pool)
	}
	if net.poolBody == nil {
		net.poolBody = net.stepChunks
	}
	net.ensureWorkers(net.pool.workers)
	return net.pool
}

// Close does nothing: the worker pool is released when the network is
// garbage collected.
//
// Deprecated: drop the call. Close is kept only for callers that still
// make it.
func (net *Network[S]) Close() {}

// poolRound is the supervised round being stepped: the snapshot's
// topology, the work set (nil: every node), its size, the chunk span,
// one change buffer per chunk and whether it is a frontier round.
type poolRound[S comparable] struct {
	c          *graph.CSR
	work       []int32
	size, span int
	bufs       [][]change[S]
	frontier   bool
}

// stepSupervised is the round kernel's multi-worker executor: it steps
// the chunks of a size-position work set, span positions each, under
// supervision, each chunk into its own buffer, marking in a frontier
// round. The round is cleared once stepped, so no slice of it outlives it.
func (net *Network[S]) stepSupervised(workers int, c *graph.CSR, work []int32, size, span int, bufs [][]change[S], frontier bool) error {
	net.poolRound = poolRound[S]{c: c, work: work, size: size, span: span, bufs: bufs, frontier: frontier}
	err := net.runSupervised(workers)
	net.poolRound = poolRound[S]{}
	return err
}

// stepInline steps a one-chunk round on the round owner, on worker 0's
// scratch and with no pool, and returns a Step panic as the pool would
// return one raised in the owner's share: as worker 0's.
func (net *Network[S]) stepInline() (wp *workerPanic) {
	defer func() { wp = recovered(0, recover()) }()
	net.stepChunk(net.serialScratch(), 0)
	return nil
}

// stepChunks is the shard pool's round body: the worker claims chunks
// of the published round off the pool's cursor and steps each into the
// chunk's own buffer, on its own view scratch.
//
//fssga:hotpath
func (net *Network[S]) stepChunks(pool *shardPool, w int) {
	sc := net.workers[w]
	for {
		k := int(pool.cursor.Add(1)) - 1
		if k >= len(net.poolRound.bufs) {
			return
		}
		net.stepChunk(sc, k)
	}
}
