// Package lockframe pins which calls run in the caller's frame: a call
// that only spawns a goroutine returns at once, so it cannot block while
// the caller holds a lock, even when the spawned code blocks.
package lockframe

import "sync"

type svc struct {
	mu   sync.Mutex
	jobs chan int
}

// drain parks on jobs until it is closed.
func (s *svc) drain() {
	for range s.jobs {
	}
}

// start spawns the drainer and returns.
func (s *svc) start() { go s.drain() }

// startLit spawns the drainer through a literal and returns.
func (s *svc) startLit() {
	go func() { s.drain() }()
}

// drainNow runs the drainer in a literal invoked on the spot.
func (s *svc) drainNow() {
	func() { s.drain() }()
}

// Spawn holds the lock only across spawning calls.
func (s *svc) Spawn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.start()
	s.startLit()
}

// Block holds the lock across a call that parks in its own frame.
func (s *svc) Block() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainNow() // want `call to drainNow may block on a channel while holding "s.mu"`
}
