// Package lockname pins how lockorder names a lock that several
// receivers write differently: each finding names it as written at its
// own acquisition.
package lockname

import "sync"

type T struct {
	mu sync.Mutex
	n  int
}

func (a *T) A() { a.mu.Lock(); a.n++; a.mu.Unlock() } // want `lock "a.mu" must be followed directly by defer a.mu.Unlock\(\)`

func (b *T) B() { b.mu.Lock(); b.n++; b.mu.Unlock() } // want `lock "b.mu" must be followed directly by defer b.mu.Unlock\(\)`

func (c *T) C() { c.mu.Lock(); c.n++; c.mu.Unlock() } // want `lock "c.mu" must be followed directly by defer c.mu.Unlock\(\)`

func (d *T) D() { d.mu.Lock(); d.n++; d.mu.Unlock() } // want `lock "d.mu" must be followed directly by defer d.mu.Unlock\(\)`

func (e *T) E() { e.mu.Lock(); e.n++; e.mu.Unlock() } // want `lock "e.mu" must be followed directly by defer e.mu.Unlock\(\)`

func (g *T) G() { g.mu.Lock(); g.n++; g.mu.Unlock() } // want `lock "g.mu" must be followed directly by defer g.mu.Unlock\(\)`

// Leak returns early with the lock held.
func (h *T) Leak(early bool) {
	h.mu.Lock() // want `lock "h.mu" must be followed directly by defer h.mu.Unlock\(\)`
	if early {
		return
	}
	h.mu.Unlock()
}
