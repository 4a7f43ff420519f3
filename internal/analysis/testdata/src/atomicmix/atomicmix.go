// Package atomicmix exercises the sync/atomic call ban: non-test code
// calls no sync/atomic function, so no variable can be accessed
// atomically in one place and plainly in another.
package atomicmix

import "sync/atomic"

type counter struct {
	n    int64
	hits int64
}

// ---- clean shapes ----

// typed uses the typed atomics, which make mixed access
// unrepresentable; the analyzer leaves them alone.
type typed struct {
	v atomic.Int64
}

func (t *typed) bump()       { t.v.Add(1) }
func (t *typed) read() int64 { return t.v.Load() }

// fresh initializes hits in a composite literal: a plain access, and no
// call.
func fresh() *counter {
	return &counter{hits: 0}
}

// ---- flagged shapes ----

// Inc and Load agree, n is atomic at every access, but each raw call is
// flagged all the same: atomic.Int64 states the agreement in the type.
func (c *counter) Inc() { atomic.AddInt64(&c.n, 1) } // want `call to atomic\.AddInt64: use a typed atomic`

// Load reads n atomically.
func (c *counter) Load() int64 { return atomic.LoadInt64(&c.n) } // want `call to atomic\.LoadInt64: use a typed atomic`

// Mixed reads hits plainly...
func (c *counter) Mixed() int64 { return c.hits }

// ...so Bump's raw call, which races it, is where the mix is flagged.
func (c *counter) Bump() { atomic.AddInt64(&c.hits, 1) } // want `call to atomic\.AddInt64: use a typed atomic`

var seq int64

// peek reads the package-level seq plainly...
func peek() int64 {
	return seq
}

// ...so Next's raw call is flagged too.
func Next() int64 { return atomic.AddInt64(&seq, 1) } // want `call to atomic\.AddInt64: use a typed atomic`

// ---- audited suppression ----

// auditedBump pins the //fssga:conc suppression path: the raw call is
// acknowledged, so no want comment appears.
func auditedBump(c *counter) {
	//fssga:conc(fixture: the counter is not yet published)
	atomic.AddInt64(&c.hits, 1)
}
