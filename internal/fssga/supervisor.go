package fssga

import (
	"errors"
	"fmt"
	"time"
)

// Supervised parallel rounds. A worker panic (a bad automaton Step, a
// corrupted state table) must not kill a long-running process mid-round:
// the synchronous model makes a round transactional — workers read only
// the committed states and write only their chunks' change buffers,
// which commit after the round — so a failed round can be discarded
// wholesale and retried. The only state a failed attempt leaks is partially consumed
// per-node RNG draws, which the counting sources (rng.go) rewind
// exactly. After a bounded number of attempts with capped exponential
// backoff the round fails with a structured *PanicError carrying the
// original panic value and stack, leaving the network on its last
// committed round (checkpointable, restorable).

// ErrConcurrentRound is returned when two synchronous rounds are
// started on the same network at once. Rounds mutate the shared change
// buffers and states, so concurrent callers are a caller bug — but one
// that gets a defined error, not a data race.
var ErrConcurrentRound = errors.New("fssga: concurrent synchronous round on the same network")

// PanicError reports a worker panic that survived every supervised
// retry of a parallel round. The network is left on its last committed
// round: states, round counter and RNG positions are exactly as they
// were before the failed round began.
type PanicError struct {
	Round    int    // 1-based number of the round that failed
	Worker   int    // pool worker that panicked on the final attempt
	Attempts int    // total attempts made, including the first
	Value    any    // the recovered panic value
	Stack    string // goroutine stack at the final panic
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("fssga: round %d panicked in worker %d after %d attempts: %v",
		e.Round, e.Worker, e.Attempts, e.Value)
}

const (
	// maxRoundAttempts bounds supervised retries of one round,
	// including the first attempt.
	maxRoundAttempts = 4
	// backoffBase/backoffCap shape the capped exponential pause before
	// each retry: base, 2·base, ... never exceeding the cap.
	backoffBase = time.Millisecond
	backoffCap  = 8 * time.Millisecond
)

// snapshotRNG records every node stream's position into the network's
// reusable scratch and returns it. It returns nil when no stream has
// ever been drawn from: all positions are zero, which rollbackRNG
// understands, so deterministic runs pay nothing per round.
func (net *Network[S]) snapshotRNG() []uint64 {
	if !net.rngUsed.Load() {
		return nil
	}
	if cap(net.rngSnap) < len(net.srcs) {
		net.rngSnap = make([]uint64, len(net.srcs))
	}
	net.rngSnap = net.rngSnap[:len(net.srcs)]
	for v, s := range net.srcs {
		net.rngSnap[v] = s.position()
	}
	return net.rngSnap
}

// rollbackRNG rewinds every stream that advanced past the snapshot —
// the draws a failed attempt consumed. Untouched streams (the common
// case: a panic early in the round) cost one comparison.
func (net *Network[S]) rollbackRNG(snap []uint64) {
	if snap == nil {
		// Nothing had ever drawn at round start; the failed attempt may
		// still have drawn before dying.
		if !net.rngUsed.Load() {
			return
		}
		for _, s := range net.srcs {
			if s.position() != 0 {
				s.rewind(0)
			}
		}
		return
	}
	for v, s := range net.srcs {
		if s.position() != snap[v] {
			s.rewind(snap[v])
		}
	}
}

// runSupervised executes one round body on the shard pool under panic
// supervision: each attempt runs body on every worker; a worker panic
// discards the attempt, rewinds the RNG streams to their round-start
// positions, sleeps a capped exponential backoff, and retries. Returns
// nil once an attempt completes cleanly, or the final *PanicError after
// maxRoundAttempts.
func (net *Network[S]) runSupervised(workers int, body func(pool *shardPool, worker int)) error {
	rngSnap := net.snapshotRNG()
	pool := net.ensurePool(workers)
	run := func(w int) { body(pool, w) }
	var last error
	for attempt := 1; attempt <= maxRoundAttempts; attempt++ {
		if attempt > 1 {
			net.rollbackRNG(rngSnap)
			d := backoffBase << (attempt - 2)
			if d > backoffCap {
				d = backoffCap
			}
			time.Sleep(d)
		}
		pool.cursor.Store(0)
		wp := pool.round(run)
		if wp == nil {
			return nil
		}
		last = &PanicError{
			Round:    net.Rounds + 1,
			Worker:   wp.worker,
			Attempts: attempt,
			Value:    wp.value,
			Stack:    wp.stack,
		}
	}
	// Leave the network exactly on its committed round: the change
	// buffers are garbage (never committed) and the streams rewind.
	net.rollbackRNG(rngSnap)
	return last
}
