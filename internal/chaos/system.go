package chaos

import (
	"fmt"

	"repro/internal/graph"
)

// System is a target algorithm wrapped for the chaos runner. One System is
// one run: the runner installs its fault-delivery closure via PreRound,
// then alternates Round / Check until done, and calls Final for the
// end-of-run verdict.
type System interface {
	// PreRound installs the runner's fault-delivery hook, invoked at the
	// start of every round — before the round's snapshot is read — with
	// the upcoming round number. FSSGA targets wire it straight to
	// fssga.Network.OnBeforeRound, so hook-driven kills have exactly
	// faults.Injector.Advance semantics; non-FSSGA targets (the β
	// baseline) call it by hand before each pulse.
	PreRound(fn func(round int))
	// Round executes one synchronous round (or pulse).
	Round()
	// Done reports whether the system has converged; the runner only
	// consults it after the attack horizon has passed.
	Done() bool
	// Observe returns the adversary-visible summary (χ, protected nodes)
	// of the current state.
	Observe() Observation
	// Check returns the first live-monitor violation observed up to and
	// including the given round, or nil. Targets evaluate their monitors
	// inside fssga.Network.OnRound (after every committed round) and
	// latch the first failure.
	Check(round int) error
	// Final is the end-of-run verdict (oracle comparison, component
	// agreement, …), checked only if no live monitor fired.
	Final() error
	// Digest returns an FNV-1a digest of the full live state (topology
	// counts + per-node states). Replays are verified digest-by-digest.
	Digest() uint64
}

// Builder registers a chaos target.
type Builder struct {
	Name string
	// Sensitivity is the paper's sensitivity class for the algorithm,
	// used by the smoke campaign to derive expectations ("0" targets must
	// survive every adversary).
	Sensitivity string
	New         func(g *graph.Graph, seed int64, workers int) (System, error)
}

// FNV-1a constants (64-bit).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Digest accumulates an FNV-1a hash of a run's observable state.
type Digest struct{ h uint64 }

// NewDigest starts a digest at the FNV offset basis.
func NewDigest() *Digest { return &Digest{h: fnvOffset} }

// Uint64 folds in an 8-byte value.
func (d *Digest) Uint64(x uint64) {
	for i := 0; i < 8; i++ {
		d.h = (d.h ^ (x & 0xff)) * fnvPrime
		x >>= 8
	}
}

// Int folds in an int.
func (d *Digest) Int(x int) { d.Uint64(uint64(x)) }

// String folds in a string byte-by-byte.
func (d *Digest) String(s string) {
	for i := 0; i < len(s); i++ {
		d.h = (d.h ^ uint64(s[i])) * fnvPrime
	}
}

// Sum returns the current hash.
func (d *Digest) Sum() uint64 { return d.h }

// DigestStates hashes a full live network state under the chaos digest
// scheme. Exported so other record/replay engines (the bounded model
// checker, internal/mc) emit digests bit-compatible with chaos run logs.
func DigestStates[S comparable](g *graph.Graph, states []S) uint64 {
	return digestStates(g, states)
}

// digestStates hashes the live topology counts plus every live node's
// state (via its canonical %v rendering — all target states are plain
// value types, so the rendering is deterministic).
func digestStates[S comparable](g *graph.Graph, states []S) uint64 {
	d := NewDigest()
	d.Int(g.NumNodes())
	d.Int(g.NumEdges())
	for v := 0; v < g.Cap(); v++ {
		if g.Alive(v) {
			d.Int(v)
			d.String(fmt.Sprintf("%v", states[v]))
		}
	}
	return d.Sum()
}
