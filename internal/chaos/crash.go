package chaos

// Crash-recovery soak: run a probabilistic FSSGA workload under the
// decreasing fault model while checkpointing through a fault-injecting
// filesystem, kill the "process" at every single write unit, reboot, and
// require that every recovery either resumes the reference trajectory
// bit-for-bit or fails with a structured checksum/format error. The one
// outcome that is never acceptable is silent divergence.
//
// The chaos System interface is deliberately opaque (no state access), so
// the soak drives an fssga.Network directly and reuses DigestStates for
// digests bit-compatible with chaos run logs.

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/checkpoint"
	"repro/internal/faults"
	"repro/internal/fssga"
	"repro/internal/graph"
	"repro/internal/trace"
)

// ErrSilentCorruption marks the one forbidden outcome of a recovery: a
// restore that succeeded but resumed onto a trajectory that diverges from
// the uninterrupted reference run.
var ErrSilentCorruption = errors.New("chaos: silent corruption after restore")

// faultSeedOffset decorrelates the fault schedule from the automaton's
// own RNG streams.
const faultSeedOffset = 0x5eed

// CrashConfig parameterizes a crash-recovery soak.
type CrashConfig struct {
	Graph   trace.GraphSpec
	Seed    int64
	Workers int // live-run engine: ≤1 serial, else sharded parallel
	Rounds  int // total workload rounds
	Every   int // checkpoint every this many rounds
	// FullEvery makes every FullEvery-th checkpoint a full snapshot and
	// the rest deltas; ≤1 means every checkpoint is full.
	FullEvery int
	Keep      int     // store retention (0 = keep all)
	FaultRate float64 // faults.RandomSchedule rate over the horizon
	// BitFlips is the number of single-bit corruptions tried per
	// committed file in the corruption pass; 0 skips the pass.
	BitFlips int
}

// CrashReport summarizes a completed sweep.
type CrashReport struct {
	Units       int64 // filesystem write units swept (one crash each)
	Checkpoints int   // checkpoints committed by the uninterrupted probe
	FaultEvents int   // fault events that fired during the reference run
	Recovered   int   // crashes recovered from a committed checkpoint
	CleanSlate  int   // crashes before the first commit (restart from 0)
	LoudFlips   int   // bit flips rejected with a structured error
	CleanFlips  int   // bit flips outside the restore path (no effect)
}

func (r *CrashReport) String() string {
	return fmt.Sprintf("units=%d checkpoints=%d faults=%d recovered=%d clean-slate=%d flips(loud=%d clean=%d)",
		r.Units, r.Checkpoints, r.FaultEvents, r.Recovered, r.CleanSlate, r.LoudFlips, r.CleanFlips)
}

// soakAutomaton is the workload: a probabilistic majority-ish rule whose
// per-round draws make RNG-position restore load-bearing, and whose
// neighbourhood term makes topology (and thus fault replay) load-bearing.
type soakAutomaton struct{}

func (soakAutomaton) Step(self int, view *fssga.View[int], rnd *rand.Rand) int {
	return (rnd.Intn(3) + view.CountMod(3, func(s int) bool { return s != self })) % 3
}

func soakInit(v int) int { return v % 3 }

func (cfg CrashConfig) validate() error {
	if cfg.Rounds <= 0 || cfg.Every <= 0 {
		return fmt.Errorf("chaos: crash soak needs Rounds and Every > 0 (got %d, %d)", cfg.Rounds, cfg.Every)
	}
	return nil
}

// build constructs the workload network plus its fault injector. Every
// call is deterministic in cfg, which is what lets a rebooted run replay
// the exact faults the dead run applied.
func (cfg CrashConfig) build() (*fssga.Network[int], *faults.Injector, error) {
	g, err := graph.Build(cfg.Graph.Gen, cfg.Graph.N, cfg.Graph.Seed)
	if err != nil {
		return nil, nil, err
	}
	sched := faults.RandomSchedule(g, cfg.Rounds, cfg.FaultRate, 0.5,
		rand.New(rand.NewSource(cfg.Seed+faultSeedOffset)))
	inj := faults.NewInjector(sched)
	net := fssga.New[int](g, soakAutomaton{}, soakInit, cfg.Seed)
	net.OnBeforeRound = func(round int) { inj.Advance(net.G, round) }
	return net, inj, nil
}

// soakRound advances one round under the configured engine.
func soakRound(net *fssga.Network[int], workers int) error {
	if workers <= 1 {
		net.SyncRound()
		return nil
	}
	return net.TrySyncRoundParallel(workers)
}

// fullAt reports whether the checkpoint at round r is a full snapshot.
func (cfg CrashConfig) fullAt(r int) bool {
	if cfg.FullEvery <= 1 {
		return true
	}
	return (r/cfg.Every)%cfg.FullEvery == 1
}

// runWorkload executes the workload over fs, checkpointing on cadence.
// It stops at the simulated crash (checkpoint error wrapping
// checkpoint.ErrCrashed) — the moment the process dies — and returns any
// other error as a real failure.
func (cfg CrashConfig) runWorkload(fs checkpoint.FS) (committed int, err error) {
	net, inj, err := cfg.build()
	if err != nil {
		return 0, err
	}
	store := checkpoint.NewStore(fs, cfg.Keep)
	mgr := checkpoint.NewManager(net, store, checkpoint.Meta{
		Target: "crash-soak", Workers: cfg.Workers, Graph: cfg.Graph,
	})
	for r := 1; r <= cfg.Rounds; r++ {
		if err := soakRound(net, cfg.Workers); err != nil {
			return committed, err
		}
		if r%cfg.Every != 0 {
			continue
		}
		mgr.Meta.FaultsApplied = len(inj.Applied())
		if cfg.fullAt(r) {
			err = mgr.Checkpoint()
		} else {
			err = mgr.CheckpointDelta()
		}
		if err != nil {
			if errors.Is(err, checkpoint.ErrCrashed) {
				return committed, nil // process died here
			}
			return committed, err
		}
		committed++
	}
	return committed, nil
}

// rebootResume models the post-crash restart: a fresh Store over the
// surviving bytes, fault replay up to the checkpointed round, restore,
// and a resume to the end of the horizon under the given engine, checked
// digest-by-digest against ref (ref[r-1] is the digest after round r).
//
// It returns the round the run restarted from (0 = clean slate, no
// committed checkpoint survived). Errors out of the checkpoint machinery
// (checksum, format, truncation) pass through unwrapped so callers can
// classify them; a divergence from ref reports ErrSilentCorruption.
func (cfg CrashConfig) rebootResume(fs checkpoint.FS, ref []uint64, workers int) (int, error) {
	net, inj, err := cfg.build()
	if err != nil {
		return 0, err
	}
	store := checkpoint.NewStore(fs, cfg.Keep)

	start := 0
	_, data, lerr := store.Latest()
	switch {
	case lerr == nil:
		meta, err := checkpoint.PeekMeta(data)
		if err != nil {
			return 0, err
		}
		// Replay the dead run's faults before restoring: the topology
		// hash guard refuses the snapshot otherwise.
		inj.Advance(net.G, meta.Round)
		if got := len(inj.Applied()); got != meta.FaultsApplied {
			return 0, fmt.Errorf("%w: fault replay applied %d events, checkpoint recorded %d",
				ErrSilentCorruption, got, meta.FaultsApplied)
		}
		if _, err := checkpoint.NewManager(net, store, checkpoint.Meta{}).Restore(); err != nil {
			return 0, err
		}
		start = meta.Round
		// The restored state itself must sit on the reference
		// trajectory — a forged final-round checkpoint would otherwise
		// slip through with no resumed rounds left to check.
		if got := DigestStates(net.G, net.States()); got != ref[start-1] {
			return start, fmt.Errorf("%w: restored round %d digest %#x, want %#x",
				ErrSilentCorruption, start, got, ref[start-1])
		}
	case errors.Is(lerr, checkpoint.ErrNoCheckpoint):
		// Crash before the first commit: restart from scratch.
	default:
		return 0, lerr
	}

	for r := start + 1; r <= cfg.Rounds; r++ {
		if err := soakRound(net, workers); err != nil {
			return start, err
		}
		if got := DigestStates(net.G, net.States()); got != ref[r-1] {
			return start, fmt.Errorf("%w: round %d digest %#x, want %#x (restored from %d, workers=%d)",
				ErrSilentCorruption, r, got, ref[r-1], start, workers)
		}
	}
	return start, nil
}

// CrashSweep runs the full soak:
//
//  1. an uninterrupted reference run records per-round digests;
//  2. an uncrashed probe through a FaultFS measures the write-unit space
//     and confirms checkpointing does not perturb the trajectory;
//  3. for every unit k, a fresh run crashes exactly there, reboots on
//     the surviving bytes, and must resume the reference bit-for-bit —
//     cycling the resume engine across serial and sharded-parallel;
//  4. every committed file of a clean run takes BitFlips single-bit
//     corruptions, each of which must either be rejected loudly or
//     provably not participate in the restore path.
//
// The returned error is nil iff no crash point and no corruption ever
// produced silent divergence.
func (cfg CrashConfig) CrashSweep() (*CrashReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rep := &CrashReport{}

	// Reference trajectory, no checkpointing in the loop.
	refNet, refInj, err := cfg.build()
	if err != nil {
		return nil, err
	}
	ref := make([]uint64, cfg.Rounds)
	for r := 1; r <= cfg.Rounds; r++ {
		if err := soakRound(refNet, cfg.Workers); err != nil {
			return nil, err
		}
		ref[r-1] = DigestStates(refNet.G, refNet.States())
	}
	rep.FaultEvents = len(refInj.Applied())

	// Probe: measure the unit space and cross-check that a checkpointing
	// run walks the same trajectory.
	probeMem := checkpoint.NewMemFS()
	probeFFS := checkpoint.NewFaultFS(probeMem)
	committed, err := cfg.runWorkload(probeFFS)
	if err != nil {
		return nil, err
	}
	rep.Checkpoints = committed
	rep.Units = probeFFS.Units()
	if rep.Units == 0 {
		return nil, errors.New("chaos: crash soak wrote no filesystem units")
	}
	if start, err := cfg.rebootResume(probeMem, ref, cfg.Workers); err != nil || start == 0 {
		return nil, fmt.Errorf("chaos: probe run unusable (restored from %d): %w", start, err)
	}

	// Crash at every unit, cycling the resume engine.
	engines := []int{1, 2, 4}
	for k := int64(0); k < rep.Units; k++ {
		mem := checkpoint.NewMemFS()
		ffs := checkpoint.NewFaultFS(mem)
		ffs.CrashAtUnit(k)
		if _, err := cfg.runWorkload(ffs); err != nil {
			return rep, fmt.Errorf("chaos: crash unit %d: workload: %w", k, err)
		}
		start, err := cfg.rebootResume(mem, ref, engines[k%int64(len(engines))])
		if err != nil {
			// Pure crashes never corrupt committed bytes, so every loud
			// refusal here is a durability bug, not a detection.
			return rep, fmt.Errorf("chaos: crash unit %d: recovery: %w", k, err)
		}
		if start > 0 {
			rep.Recovered++
		} else {
			rep.CleanSlate++
		}
	}

	if cfg.BitFlips > 0 {
		if err := cfg.flipSweep(rep, ref); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// flipSweep corrupts committed checkpoints one bit at a time and
// classifies each recovery attempt: loud structured refusal, or a flip
// that demonstrably never entered the restore path (recovery succeeds
// and still resumes the reference exactly). Silent divergence aborts.
func (cfg CrashConfig) flipSweep(rep *CrashReport, ref []uint64) error {
	mem := checkpoint.NewMemFS()
	if _, err := cfg.runWorkload(mem); err != nil {
		return err
	}
	names, err := mem.List()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2*faultSeedOffset))
	for _, name := range names {
		size, err := mem.Size(name)
		if err != nil {
			return err
		}
		for t := 0; t < cfg.BitFlips; t++ {
			off, bit := rng.Intn(size), uint(rng.Intn(8))
			if err := mem.Corrupt(name, off, bit); err != nil {
				return err
			}
			_, rerr := cfg.rebootResume(mem, ref, 1)
			switch {
			case rerr == nil:
				rep.CleanFlips++
			case errors.Is(rerr, ErrSilentCorruption):
				return fmt.Errorf("chaos: flip %s byte %d bit %d: %w", name, off, bit, rerr)
			default:
				rep.LoudFlips++
			}
			if err := mem.Corrupt(name, off, bit); err != nil { // flip back
				return err
			}
		}
	}
	return nil
}
