// Package lockname pins how lockorder names a lock that several
// receivers write differently: by how it is written at its first
// acquisition in source order.
package lockname

import "sync"

type T struct {
	mu sync.Mutex
	n  int
}

func (a *T) A() { a.mu.Lock(); a.n++; a.mu.Unlock() }

func (b *T) B() { b.mu.Lock(); b.n++; b.mu.Unlock() }

func (c *T) C() { c.mu.Lock(); c.n++; c.mu.Unlock() }

func (d *T) D() { d.mu.Lock(); d.n++; d.mu.Unlock() }

func (e *T) E() { e.mu.Lock(); e.n++; e.mu.Unlock() }

func (g *T) G() { g.mu.Lock(); g.n++; g.mu.Unlock() }

// Leak returns early with the lock held.
func (h *T) Leak(early bool) {
	h.mu.Lock() // want `lock "a.mu" may be held at function exit on some path`
	if early {
		return
	}
	h.mu.Unlock()
}
