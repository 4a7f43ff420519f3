package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"
	"weak"

	"repro/internal/checkpoint"
	"repro/internal/fssga"
)

// spec names a workload and says how a run of it is sized.
type spec struct {
	name     string
	why      string
	parallel bool    // steps at -workers, cross-checked against one worker
	nominal  float64 // seconds per untraced solve on 2 CPUs, warm-up solve spread over the run; sizes a run to -seconds
}

// job is one workload: how to build a fresh network from a seed, and how
// its solve is checkpointed.
type job[S comparable] struct {
	spec
	maxRounds int // round cap: a solve that reaches it has failed
	// deltaEvery > 0: a full checkpoint before round 1, a delta every
	// deltaEvery rounds and a closing delta at the end. 0: one full
	// checkpoint after the last round.
	deltaEvery int
	setup      func(r *recorder, seed int64) (*instance[S], error)
	enc        func(b []byte, s S) []byte // canonical bytes of a state, for digests

	// tamper, if set, runs on the final network of a solve at w workers
	// before the oracle; tests use it to corrupt a result.
	tamper func(net *fssga.Network[S], w int)
}

// instance is one fresh network ready for round 1.
type instance[S comparable] struct {
	net *fssga.Network[S]
	// round runs one round at w workers and reports whether the
	// stopping condition now holds.
	round func(r *recorder, w int) (done bool)
	// oracle is called after set-up and before round 1, outside the
	// timers; it captures what it needs and returns the check of the
	// final states.
	oracle func() func(final []S) error
}

// result is what one solve leaves for the metrics.
type result struct {
	err     error
	spans   []span
	speed   float64 // host speed around the solve, as a multiple of the reference speed
	heapMB  float64
	changed int64 // node state changes, counted in traced solves
	agg     fssga.AggStats
	digest  uint64
	rounds  int
	leaked  bool // the closed network outlived a full GC

	bytesFull, bytesDelta, chainLen int
}

// A set-up, closing checkpoint write or restore is repeated until its
// calls add up to repeatWindow, or maxRepeats calls, and counts at its
// mean, as Go's testing.B times an operation. On a shared host a step of
// a fraction of a millisecond runs at one of two speeds, about 1.5 times
// apart, for stretches of a few milliseconds; a window of many such
// stretches averages them out. Steps longer than the window run once.
const (
	repeatWindow = 100 * time.Millisecond
	maxRepeats   = 1000
)

// repeat calls f until the calls add up to repeatWindow or maxRepeats
// calls, stopping at the first error.
func repeat(f func() error) error {
	var spent time.Duration
	for i := 0; i < maxRepeats && spent < repeatWindow; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return err
		}
		spent += time.Since(start)
	}
	return nil
}

// solve builds a fresh network for seed, runs it at w workers from round
// 1 to its stopping condition, checkpoints and restores it, and checks
// the outcome. detail records per-round spans and counts state changes.
// The network is closed, and then checked for a leak once nothing of the
// solve refers to it. The host's speed is measured just before and just
// after, outside the timers.
func (j *job[S]) solve(r *recorder, seed int64, w int, detail bool) result {
	runtime.GC()
	before := calibrate()
	var net weak.Pointer[fssga.Network[S]]
	res := j.run(r, seed, w, detail, &net)
	res.leaked = leaked(net)
	res.speed = float64(2*calibrationRef) / float64(before+calibrate())
	return res
}

// run is solve up to the leak check; it points wp at the network it
// solves on.
func (j *job[S]) run(r *recorder, seed int64, w int, detail bool, wp *weak.Pointer[fssga.Network[S]]) (res result) {
	first := r.newTrace(j.name, seed, w, detail)
	defer func() { res.spans = r.spans[first:] }()

	// The solve runs on the last network built.
	var inst *instance[S]
	err := repeat(func() error {
		if inst != nil {
			inst.net.Close()
			inst = nil
		}
		ph := r.begin("bench.setup")
		next, err := j.setup(r, seed)
		r.end(ph)
		inst = next
		return err
	})
	if err != nil {
		res.err = err
		return res
	}
	net := inst.net
	*wp = weak.Make(net)
	defer net.Close()
	res.heapMB = heapLiveMB()
	check := inst.oracle()
	var prev []S
	if detail {
		prev = append(prev, net.States()...)
	}

	store := checkpoint.NewStore(checkpoint.NewMemFS(), 0)
	meta := checkpoint.Meta{Target: j.name, Workers: w}
	mgr := checkpoint.NewManager(net, store, meta)
	write := func(delta bool) error {
		t := r.now()
		if delta {
			err := mgr.CheckpointDelta()
			r.call("checkpoint.write_delta", t)
			return err
		}
		err := mgr.Checkpoint()
		r.call("checkpoint.write_full", t)
		return err
	}

	ph := r.begin("bench.solve")
	last := -1
	if j.deltaEvery > 0 {
		if err = write(false); err != nil {
			r.end(ph)
			res.err = err
			return res
		}
		last = net.Rounds
	}
	done := false
	for i := 0; i < j.maxRounds && !done && err == nil; i++ {
		done = inst.round(r, w)
		if detail {
			t := r.now()
			res.changed += countChanges(prev, net.States())
			r.call("bench.diff", t)
		}
		if j.deltaEvery > 0 && net.Rounds%j.deltaEvery == 0 && net.Rounds != last {
			err = write(true)
			last = net.Rounds
		}
	}
	r.end(ph)
	if err != nil {
		res.err = err
		return res
	}
	res.rounds = net.Rounds
	res.agg = net.AggStats()
	res.heapMB = max(res.heapMB, heapLiveMB())
	if !done {
		res.err = fmt.Errorf("no stop within the cap of %d rounds", j.maxRounds)
		return res
	}
	if j.tamper != nil {
		j.tamper(net, w)
	}
	if err := check(net.States()); err != nil {
		res.err = fmt.Errorf("oracle: %w", err)
		return res
	}
	res.digest = j.digest(net.States())

	ph = r.begin("bench.checkpoint")
	if j.deltaEvery > 0 {
		if net.Rounds != last {
			err = write(true)
		}
	} else {
		err = repeat(func() error {
			store = checkpoint.NewStore(checkpoint.NewMemFS(), 0)
			mgr = checkpoint.NewManager(net, store, meta)
			return write(false)
		})
	}
	r.end(ph)
	if err != nil {
		res.err = err
		return res
	}

	ph = r.begin("bench.restore")
	err = repeat(func() error {
		t := r.now()
		_, err := mgr.Restore()
		r.call("checkpoint.restore", t)
		return err
	})
	r.end(ph)
	if err != nil {
		res.err = err
		return res
	}
	if got := j.digest(net.States()); got != res.digest || net.Rounds != res.rounds {
		res.err = errors.New("restore: restored states differ from the checkpointed ones")
		return res
	}
	if detail {
		res.err = j.breakdown(r, net, store, &res)
	}
	return res
}

// breakdown re-calls the checkpoint layer's public functions on the
// final full payload, timing each stage alone, and sizes the checkpoints
// the solve committed. It repeats work the solve already did, so it runs
// after the timed phases and is left out of the wall time.
func (j *job[S]) breakdown(r *recorder, net *fssga.Network[S], store *checkpoint.Store, res *result) error {
	states := net.States()
	meta := checkpoint.Meta{Kind: checkpoint.KindFull, Round: net.Rounds, Nodes: len(states),
		Seed: net.Seed(), TopoHash: net.Topology().ContentHash(), BaseRound: -1}
	pay := checkpoint.Payload[S]{States: states, RNGPos: net.RNGPositions()}
	var data []byte
	ph := r.begin("bench.breakdown")
	defer r.end(ph)
	stages := []struct {
		name string
		f    func() error
	}{
		{"checkpoint.encode", func() (err error) { data, err = checkpoint.Encode(meta, pay); return err }},
		{"checkpoint.verify", func() error { return checkpoint.Verify(data) }},
		{"checkpoint.decode", func() error { _, _, err := checkpoint.Decode[S](data); return err }},
		{"checkpoint.store_write", func() error {
			return checkpoint.NewStore(checkpoint.NewMemFS(), 0).Write(meta.Round, data)
		}},
	}
	for _, st := range stages {
		if err := repeat(func() error {
			t := r.now()
			err := st.f()
			r.call(st.name, t)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
	}

	rounds, err := store.Rounds()
	if err != nil {
		return err
	}
	for _, round := range rounds {
		data, err := store.Read(round)
		if err != nil {
			return err
		}
		m, err := checkpoint.PeekMeta(data)
		if err != nil {
			return err
		}
		if m.Kind == checkpoint.KindFull {
			res.bytesFull += len(data)
		} else {
			res.bytesDelta += len(data)
			res.chainLen++
		}
	}
	return nil
}

// leaked reports whether a closed network outlived a full GC, and if so
// clears its finalizer so that the next GC frees it. A network that ran
// a parallel round carries the pool's finalizer, and its per-node random
// sources point back into it; the GC never collects a cycle through a
// finalizer, so such a network stays live after Close (see README.md,
// Findings). Clearing the finalizer keeps the leak from piling up across
// solves and moving later solves' heap and times.
func leaked[S comparable](wp weak.Pointer[fssga.Network[S]]) bool {
	runtime.GC()
	net := wp.Value()
	if net == nil {
		return false
	}
	runtime.SetFinalizer(net, nil)
	return true
}

// The host's speed drifts: on a shared 2-CPU virtual machine the loop
// below took anywhere from 31 to 48 ms over a few minutes, and every
// workload slowed and sped up with it. End-to-end times are therefore
// reported in reference seconds: measured seconds times the host's
// speed, which is the loop's reference time over the mean of its times
// just before and just after the solve. The loop is the benchmark's own
// code and touches no memory, so no change to the repository can move
// it.
const (
	calibrationSteps = 20_000_000
	calibrationRef   = 40 * time.Millisecond // the loop's time at reference speed
)

var calibrationSink uint64

// calibrate times a fixed xorshift loop.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibrationSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink = x
	return time.Since(start)
}

func (j *job[S]) digest(states []S) uint64 {
	h := fnv.New64a()
	var b []byte
	for _, s := range states {
		b = j.enc(b[:0], s)
		h.Write(b)
	}
	return h.Sum64()
}

// countChanges returns how many entries of cur differ from prev and
// copies cur into prev.
func countChanges[S comparable](prev, cur []S) int64 {
	n := int64(0)
	for i, s := range cur {
		if prev[i] != s {
			n++
			prev[i] = s
		}
	}
	return n
}

func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
