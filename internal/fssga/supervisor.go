package fssga

import (
	"errors"
	"fmt"
	"time"
)

// Supervised rounds, at every worker count. A Step panic (a bad
// automaton Step, a corrupted state table) must not kill a long-running
// process mid-round: the synchronous model makes a round transactional —
// workers read only the committed states and write only their chunks'
// change buffers, which commit after the round — so a failed round can
// be discarded wholesale and retried. A retry draws the same random
// bits: a step's stream is a function of the round's epoch (rng.go),
// which only the commit advances. After a bounded number of attempts
// with capped exponential backoff the round fails with a structured
// *PanicError carrying the original panic value and stack, leaving the
// network on its last committed round (checkpointable, restorable).

// ErrConcurrentRound is returned when two synchronous rounds are
// started on the same network at once. Rounds mutate the shared change
// buffers and states, so concurrent callers are a caller bug — but one
// that gets a defined error, not a data race.
var ErrConcurrentRound = errors.New("fssga: concurrent synchronous round on the same network")

// PanicError reports a worker panic that survived every supervised
// retry of a round. The network is left on its last committed round:
// states and round counter are exactly as they were before the failed
// round began.
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

// runSupervised steps the published round (net.poolRound) under panic
// supervision: each attempt steps a one-chunk round inline on the round
// owner, which wakes no helper, and any other round on every worker of
// the shard pool; a Step panic discards the attempt, sleeps a capped
// exponential backoff, and retries. Returns nil once an attempt
// completes cleanly, or the final *PanicError after maxRoundAttempts.
func (net *Network[S]) runSupervised(workers int) error {
	var last error
	for attempt := 1; attempt <= maxRoundAttempts; attempt++ {
		if attempt > 1 {
			d := backoffBase << (attempt - 2)
			if d > backoffCap {
				d = backoffCap
			}
			time.Sleep(d)
		}
		var wp *workerPanic
		if len(net.poolRound.bufs) == 1 {
			wp = net.stepInline()
		} else {
			pool := net.ensurePool(workers)
			pool.cursor.Store(0)
			wp = pool.round(net.poolBody)
		}
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
	// The network stays on its committed round: the change buffers are
	// garbage, never committed.
	return last
}
