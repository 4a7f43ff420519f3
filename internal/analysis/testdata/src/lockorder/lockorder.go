// Package lockorder exercises the lock-discipline analyzer: every Lock
// followed directly by its deferred Unlock, and a function holding a
// lock taking no other lock, blocking on no channel operation and
// calling nothing in the package that may lock or block.
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

// forget unlocks by hand, and on only one path.
func (s *store) forget(k string, really bool) {
	s.mu.Lock() // want `lock "s.mu" must be followed directly by defer s.mu.Unlock\(\)`
	if really {
		delete(s.data, k)
		s.mu.Unlock()
	}
}

// condLeak locks only inside a leading branch and returns still
// holding: the Lock is not followed by its deferred Unlock, wherever it
// sits.
func (s *store) condLeak(really bool) {
	if really {
		s.mu.Lock() // want `lock "s.mu" must be followed directly by defer s.mu.Unlock\(\)`
		return
	}
}

// condBlock locks in a leading branch, then blocks after the join. A
// function that takes a lock holds it throughout, so the unlock under a
// second, correlated branch does not discharge the send either.
func (s *store) condBlock(really bool) {
	if really {
		s.mu.Lock() // want `lock "s.mu" must be followed directly by defer s.mu.Unlock\(\)`
	}
	s.out <- 1 // want `blocking send while holding "s.mu": the lock is held for the full park`
	if really {
		s.mu.Unlock()
	}
}

// relock acquires a lock it already holds.
func (s *store) relock() {
	s.mu.Lock() // want `lock "s.mu" must be followed directly by defer s.mu.Unlock\(\)`
	s.mu.Lock() // want `lock "s.mu" acquired while "s.mu" is held` `lock "s.mu" must be followed directly by defer s.mu.Unlock\(\)`
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
	for range s.out { // want `ranging over a channel while holding "s.mu": the lock is held for the full park`
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
	s.lockedHelper() // want `call to lockedHelper may acquire a lock while holding "s.mu"`
}

// ---- nested locks ----

type twin struct {
	a sync.Mutex
	b sync.Mutex
}

// lockAB takes a before b; lockBA takes b before a. Together they are
// a deadlock pair, but each nests one lock in another and is flagged on
// its own, at the inner acquisition.
func (t *twin) lockAB() {
	t.a.Lock()
	defer t.a.Unlock()
	t.b.Lock() // want `lock "t.b" acquired while "t.a" is held: a function holds at most one lock`
	defer t.b.Unlock()
}

func (t *twin) lockBA() {
	t.b.Lock()
	defer t.b.Unlock()
	t.a.Lock() // want `lock "t.a" acquired while "t.b" is held: a function holds at most one lock`
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

// ---- every statement list, and frames ----

// caseLock and selectLock take the lock in a case body and a select
// arm, each followed directly by its deferred unlock: clean.
func (s *store) caseLock(k string) int {
	switch k {
	case "":
		return 0
	default:
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.data[k]
	}
}

func (s *store) selectLock() int {
	select {
	case v := <-s.out:
		s.mu.Lock()
		defer s.mu.Unlock()
		return v + len(s.data)
	default:
		return 0
	}
}

// perItem locks once per iteration inside a literal invoked on the
// spot: the literal's deferred unlock releases the lock each time, so
// the loop does not re-acquire a held lock.
func (s *store) perItem(keys []string) {
	for _, k := range keys {
		func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			delete(s.data, k)
		}()
	}
}

// loopLock defers its unlocks to the function's exit, so the second
// iteration takes a lock the first still holds.
func (s *store) loopLock(keys []string) {
	for _, k := range keys {
		s.mu.Lock() // want `lock "s.mu" acquired while "s.mu" is held`
		defer s.mu.Unlock()
		delete(s.data, k)
	}
}

// retry jumps back over its acquisition, which re-takes the held lock.
func (s *store) retry(k string) {
	tries := 0
again:
	tries++
	s.mu.Lock() // want `lock "s.mu" acquired while "s.mu" is held`
	defer s.mu.Unlock()
	if _, ok := s.data[k]; !ok && tries < 3 {
		goto again
	}
}

// mismatched releases a read lock with the write unlock.
func (s *store) mismatched(k string) int {
	s.rw.RLock() // want `lock "s.rw" must be followed directly by defer s.rw.RUnlock\(\)`
	defer s.rw.Unlock()
	return s.data[k]
}

// spawnWhileLocked holds the lock while spawning a sender: the send
// runs on its own goroutine, in a frame of its own.
func (s *store) spawnWhileLocked(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() { s.out <- v }()
}
