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
//     nodes' private RNG streams and the snapshot make the outcome
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
// round, grows if a later round asks for more workers, and is torn down
// by Network.Close or the network's finalizer.
//
// The pool is panic-safe: a body panic is recovered in the worker (the
// goroutine survives and keeps serving rounds), the first panic of a
// round is recorded, and round() reports it to the supervisor
// (supervisor.go), which discards and retries the round. mu serializes
// round() against close() so a Close racing an in-flight round waits
// for it instead of stranding wg.Wait.
type shardPool struct {
	workers int
	wake    []chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup
	cursor  atomic.Int64 // next chunk index to claim
	body    func(worker int)
	closed  atomic.Bool
	once    sync.Once
	mu      sync.Mutex                  // serializes round vs close
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
// drains its token before wg.Done, and round() holds p.mu for the whole
// round, so at most one token is ever outstanding per worker — the
// buffer can never be full when round() offers the next one.
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
	p.body(id)
}

// round runs body(worker) on every pool worker and blocks until all
// return. The body reference is dropped afterwards so the pool never
// pins a network (or its state vectors) between rounds. It returns the
// first recovered worker panic (nil for a clean round), or ErrPoolClosed
// if the pool was closed before the round could start.
func (p *shardPool) round(body func(worker int)) (*workerPanic, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	p.perr.Store(nil)
	p.body = body
	p.wg.Add(p.workers)
	for _, ch := range p.wake {
		// Non-blocking by construction: the previous round's wg.Wait
		// proved every worker consumed its token, so the 1-slot buffer is
		// empty and the default branch is unreachable. Keeping the select
		// makes that a checkable fact (chanprotocol/lockorder) instead of
		// an argument in a comment: the round owner can never park on a
		// worker's wake channel while holding p.mu.
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
	return p.perr.Load(), nil
}

// close stops the worker goroutines. Idempotent; an in-flight round
// finishes first (mu), so workers are never stopped mid-body.
func (p *shardPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.once.Do(func() {
		p.closed.Store(true)
		close(p.stop)
	})
}

// ensurePool returns a live pool with at least `workers` workers,
// creating or growing it as needed, and sizes the per-worker view
// scratch to match. Starting from no pool arms the network's finalizer,
// which tears the pool down if the caller never calls Close — pool
// goroutines reference only the pool, never the network.
func (net *Network[S]) ensurePool(workers int) *shardPool {
	net.poolMu.Lock()
	defer net.poolMu.Unlock()
	if net.pool == nil || net.pool.workers < workers {
		old := net.pool
		if old != nil {
			old.close()
		}
		net.pool = newShardPool(workers)
		if old == nil {
			runtime.SetFinalizer(net, func(n *Network[S]) { n.Close() })
		}
	}
	net.ensureWorkers(net.pool.workers)
	return net.pool
}

// Close stops the persistent worker pool's goroutines and clears the
// network's finalizer, so a closed network is collected like any other
// value once its caller drops it. It is safe to call multiple times, on
// networks that never ran a parallel round, and concurrently with
// parallel rounds (the round either completes first or retries on a
// fresh pool). A parallel round after Close transparently starts a fresh
// pool and re-arms the finalizer.
func (net *Network[S]) Close() {
	net.poolMu.Lock()
	defer net.poolMu.Unlock()
	if net.pool != nil {
		net.pool.close()
		net.pool = nil
		runtime.SetFinalizer(net, nil)
	}
}

// stepOnPool is the round kernel's multi-worker executor: it steps the
// chunks of a size-position work set, span positions each, on the shard
// pool under supervision, each chunk into its own buffer.
func (net *Network[S]) stepOnPool(workers int, c *graph.CSR, work []int32, size, span int, bufs [][]change[S]) error {
	//fssga:hotpath
	return net.runSupervised(workers, func(pool *shardPool, w int) {
		sc := net.workers[w]
		for {
			k := int(pool.cursor.Add(1)) - 1
			if k >= len(bufs) {
				return
			}
			lo := k * span
			bufs[k] = net.stepChunk(sc, c, work, lo, min(lo+span, size), bufs[k][:0])
		}
	})
}
