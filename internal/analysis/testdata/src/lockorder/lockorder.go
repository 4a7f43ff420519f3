// Package lockorder exercises the lock-discipline analyzer:
// unlock-on-all-paths, self-deadlock, holding a lock across a blocking
// channel operation (directly or through a call), and inconsistent
// acquisition order across the package.
package lockorder

import "sync"

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string]int
	out  chan int
}

// ---- clean shapes ----

// Get is the canonical shape: lock, defer unlock.
func (s *store) Get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data[k]
}

// Peek takes the read lock with the same discipline.
func (s *store) Peek(k string) int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.data[k]
}

// Offer sends while holding, but the select/default makes the send
// non-blocking: the lock owner can never park.
func (s *store) Offer(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.out <- v:
	default:
	}
}

// ---- flagged shapes ----

// forget unlocks on only one path; the other returns still holding.
func (s *store) forget(k string, really bool) {
	s.mu.Lock() // want `lock "s.mu" may be held at function exit on some path: unlock on every path or defer the unlock`
	if really {
		delete(s.data, k)
		s.mu.Unlock()
	}
}

// condLeak locks only inside a leading branch and returns still holding:
// the entry block acquires nothing, so the held set must still reach
// the blocks after the branch.
func (s *store) condLeak(really bool) {
	if really {
		s.mu.Lock() // want `lock "s.mu" may be held at function exit on some path: unlock on every path or defer the unlock`
		return
	}
}

// condBlock locks in a leading branch, then blocks after the join. The
// analysis is path-insensitive, so the unlock under a second, correlated
// branch does not discharge the lock either.
func (s *store) condBlock(really bool) {
	if really {
		s.mu.Lock() // want `lock "s.mu" may be held at function exit on some path: unlock on every path or defer the unlock`
	}
	s.out <- 1 // want `blocking send while holding "s.mu": the lock is held for the full park`
	if really {
		s.mu.Unlock()
	}
}

// relock acquires a lock it may already hold.
func (s *store) relock() {
	s.mu.Lock()
	s.mu.Lock() // want `lock "s.mu" may already be held here: self-deadlock`
	s.mu.Unlock()
	s.mu.Unlock()
}

// publish parks on a full channel with the lock held.
func (s *store) publish(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out <- v // want `blocking send while holding "s.mu": the lock is held for the full park`
}

// await parks on an empty channel with the lock held.
func (s *store) await() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.out // want `blocking receive while holding "s.mu": the lock is held for the full park`
}

// drain holds the lock for the whole range.
func (s *store) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for range s.out { // want `ranging over a channel while holding "s.mu" blocks the lock owner`
	}
}

// sendRaw blocks on its own, which is fine without a lock held...
func (s *store) sendRaw(v int) {
	s.out <- v
}

// forward ...but calling it with the lock held parks the owner.
func (s *store) forward(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sendRaw(v) // want `call to sendRaw may block on a channel while holding "s.mu"`
}

// lockedHelper acquires mu itself.
func (s *store) lockedHelper() {
	s.mu.Lock()
	defer s.mu.Unlock()
}

// nested calls a helper that re-acquires the lock it already holds.
func (s *store) nested() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lockedHelper() // want `call to lockedHelper may re-acquire "s.mu" already held here: self-deadlock`
}

// ---- inconsistent acquisition order ----

type twin struct {
	a sync.Mutex
	b sync.Mutex
}

// lockAB takes a before b; lockBA takes b before a. Either order alone
// is fine; together they are a deadlock pair, flagged at both inner
// acquisitions.
func (t *twin) lockAB() {
	t.a.Lock()
	defer t.a.Unlock()
	t.b.Lock() // want `lock "t.b" acquired while "t.a" is held, but the opposite order also occurs in this package: deadlock pair`
	defer t.b.Unlock()
}

func (t *twin) lockBA() {
	t.b.Lock()
	defer t.b.Unlock()
	t.a.Lock() // want `lock "t.a" acquired while "t.b" is held, but the opposite order also occurs in this package: deadlock pair`
	defer t.a.Unlock()
}

// ---- audited suppression ----

// auditedSend pins the //fssga:conc suppression path: the park is
// acknowledged, so no want comment appears.
func (s *store) auditedSend(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//fssga:conc(fixture: the buffer is sized for the worst case; the send cannot park)
	s.out <- v
}
