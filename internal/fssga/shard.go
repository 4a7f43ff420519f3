package fssga

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// The shard pool: the round kernel's multi-worker executor (round.go).
// The synchronous model is embarrassingly parallel — every node's
// successor state is a function of the committed snapshot σ only
// (Pritchard's divide-and-conquer observation for symmetric FSAs:
// order-invariant folds partition over disjoint node sets with no
// cross-worker coordination) — so a round's work set is cut into
// contiguous chunks that a persistent worker pool claims off an atomic
// cursor:
//
//   - each chunk appends its changes to its own buffer, so workers share
//     nothing but the read-only snapshot;
//   - the pool's goroutines persist across rounds, parked on cheap
//     per-worker wake channels — no per-round goroutine spawning;
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

// shardPool is a persistent set of worker goroutines executing one
// round body at a time. Workers park on per-worker wake channels
// between rounds; round() publishes the body, wakes everyone, and waits
// for completion. The pool is created lazily by the first multi-chunk
// round, grows if a later round asks for more workers, and lives as long
// as its network (ensurePool). Only the round owner touches it, and
// roundActive admits one owner at a time.
//
// The pool is panic-safe: a body panic is recovered in the worker (the
// goroutine survives and keeps serving rounds), the first panic of a
// round is recorded, and round() reports it to the supervisor
// (supervisor.go), which discards and retries the round.
type shardPool struct {
	workers int
	wake    []chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup
	cursor  atomic.Int64 // next chunk index to claim
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
// can hand a worker its token without a rendezvous. A worker always
// drains its token before wg.Done, and round() waits for every worker
// before it returns, so at most one token is ever outstanding per
// worker — the buffer can never be full when round() offers the next one.
const wakeChanCap = 1

func newShardPool(workers int) *shardPool {
	p := &shardPool{
		workers: workers,
		wake:    make([]chan struct{}, workers),
		stop:    make(chan struct{}),
	}
	for w := range p.wake {
		ch := make(chan struct{}, wakeChanCap)
		p.wake[w] = ch
		go func(id int) {
			for {
				select {
				case <-p.stop:
					return
				case <-ch:
					p.runBody(id)
				}
			}
		}(w)
	}
	return p
}

// runBody executes the published round body for one worker, converting
// a panic into a recorded workerPanic. wg.Done always runs, so round()
// never deadlocks on a panicking body.
func (p *shardPool) runBody(id int) {
	defer func() {
		if r := recover(); r != nil {
			p.perr.CompareAndSwap(nil, &workerPanic{
				worker: id,
				value:  r,
				stack:  string(debug.Stack()),
			})
		}
		p.wg.Done()
	}()
	p.body(p, id)
}

// round runs body(pool, worker) on every pool worker and blocks until
// all return. It returns the first recovered worker panic, nil for a
// clean round. The body and the panic are dropped afterwards: the pool
// is reachable from its network's cleanup, so anything it kept that
// points back into the network would keep the network alive for good.
func (p *shardPool) round(body func(pool *shardPool, worker int)) *workerPanic {
	p.body = body
	p.wg.Add(p.workers)
	for _, ch := range p.wake {
		// Non-blocking by construction: the previous round's wg.Wait
		// proved every worker consumed its token, so the 1-slot buffer is
		// empty and the default branch is unreachable. Keeping the select
		// makes that a checkable fact (chanprotocol) instead of an
		// argument in a comment: the round owner can never park on a
		// worker's wake channel.
		select {
		case ch <- struct{}{}:
		default:
			// A full buffer would mean a wake we issued was never consumed;
			// the worker already has its token, so dropping this one is
			// correct as well as impossible.
		}
	}
	p.wg.Wait()
	p.body = nil
	return p.perr.Swap(nil)
}

// close stops the worker goroutines. It runs once per pool: from the
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

// poolRound is the multi-chunk round the shard pool is stepping: the
// snapshot's topology, the work set (nil: every node), its size, the
// chunk span and one change buffer per chunk.
type poolRound[S comparable] struct {
	c          *graph.CSR
	work       []int32
	size, span int
	bufs       [][]change[S]
}

// stepOnPool is the round kernel's multi-worker executor: it steps the
// chunks of a size-position work set, span positions each, on the shard
// pool under supervision, each chunk into its own buffer. The round is
// cleared once stepped, so no slice of it outlives the round.
func (net *Network[S]) stepOnPool(workers int, c *graph.CSR, work []int32, size, span int, bufs [][]change[S]) error {
	net.poolRound = poolRound[S]{c: c, work: work, size: size, span: span, bufs: bufs}
	err := net.runSupervised(workers)
	net.poolRound = poolRound[S]{}
	return err
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
		lo := k * net.poolRound.span
		hi := min(lo+net.poolRound.span, net.poolRound.size)
		net.poolRound.bufs[k] = net.stepChunk(sc, net.poolRound.c, net.poolRound.work, lo, hi, net.poolRound.bufs[k][:0])
	}
}
