package chaos

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/trace"

	"repro/internal/testutil"
)

func soakConfig() CrashConfig {
	return CrashConfig{
		Graph:     trace.GraphSpec{Gen: "torus", N: 36, Seed: 3},
		Seed:      42,
		Workers:   2,
		Rounds:    12,
		Every:     3,
		FullEvery: 2,
		Keep:      3,
		FaultRate: 0.25,
		BitFlips:  2,
	}
}

// TestCrashSweep is the headline robustness soak: crash at every write
// unit of a faulted, checkpointing run, reboot, and demand bit-identical
// resumption — then corrupt committed bytes and demand loud refusals.
func TestCrashSweep(t *testing.T) {
	testutil.NoLeak(t)
	cfg := soakConfig()
	rep, err := cfg.CrashSweep()
	if err != nil {
		t.Fatalf("sweep failed (%v): %v", rep, err)
	}
	t.Logf("sweep: %v", rep)
	if rep.Units < 10 {
		t.Fatalf("suspiciously small sweep space: %v", rep)
	}
	// Unit 0 crashes before any byte lands, so clean-slate restarts must
	// occur; later units land after commits, so real recoveries must too.
	if rep.CleanSlate == 0 || rep.Recovered == 0 {
		t.Fatalf("sweep did not exercise both recovery classes: %v", rep)
	}
	if rep.CleanSlate+rep.Recovered != int(rep.Units) {
		t.Fatalf("unaccounted crash units: %v", rep)
	}
	// The workload must actually exercise delta checkpoints and faults,
	// or the sweep proves less than it claims.
	if rep.Checkpoints < 4 {
		t.Fatalf("expected ≥4 checkpoints: %v", rep)
	}
	if rep.FaultEvents == 0 {
		t.Fatalf("fault schedule never fired: %v", rep)
	}
	// Every tried bit flip was classified, and at least one was caught
	// loudly (flips in the latest chain are the common case).
	if rep.LoudFlips == 0 {
		t.Fatalf("no corruption was ever detected loudly: %v", rep)
	}
}

// TestCrashSweepDetectsSilentCorruption plants a forged checkpoint —
// valid envelope, wrong trajectory — and checks the soak's verdict
// machinery calls it out rather than accepting the restore.
func TestCrashSweepDetectsSilentCorruption(t *testing.T) {
	testutil.NoLeak(t)
	cfg := soakConfig()
	cfg.BitFlips = 0

	// Reference digests from an honest run.
	net, _, err := cfg.build()
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]uint64, cfg.Rounds)
	for r := 1; r <= cfg.Rounds; r++ {
		if err := soakRound(net, 1); err != nil {
			t.Fatal(err)
		}
		ref[r-1] = DigestStates(net.G, net.States())
	}

	// A forged store: run the workload honestly, then rewrite the latest
	// checkpoint with perturbed states under a fresh, valid envelope.
	mem := checkpoint.NewMemFS()
	if _, err := cfg.runWorkload(mem); err != nil {
		t.Fatal(err)
	}
	store := checkpoint.NewStore(mem, cfg.Keep)
	round, data, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	meta, pay, err := checkpoint.Decode[int](data)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb one state in whatever the latest checkpoint carries — the
	// probabilistic workload keeps every chunk dirty, so a delta always
	// has runs to tamper with.
	if meta.Kind == checkpoint.KindFull {
		pay.States[0] = (pay.States[0] + 1) % 3
	} else {
		if len(pay.Runs) == 0 {
			t.Fatal("latest delta carries no runs to forge")
		}
		pay.Runs[0].States[0] = (pay.Runs[0].States[0] + 1) % 3
	}
	forged, err := checkpoint.Encode(meta, pay)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write(round, forged); err != nil {
		t.Fatal(err)
	}

	_, rerr := cfg.rebootResume(mem, ref, 1)
	if !errors.Is(rerr, ErrSilentCorruption) {
		t.Fatalf("forged checkpoint not flagged: %v", rerr)
	}
	if rerr != nil && !strings.Contains(rerr.Error(), "digest") {
		t.Fatalf("verdict should name the diverging digest: %v", rerr)
	}
}

// TestCrashSweepValidation rejects degenerate configs up front.
func TestCrashSweepValidation(t *testing.T) {
	testutil.NoLeak(t)
	if _, err := (CrashConfig{}).CrashSweep(); err == nil {
		t.Fatal("zero config accepted")
	}
	bad := soakConfig()
	bad.Graph.Gen = "nonesuch"
	if _, err := bad.CrashSweep(); err == nil {
		t.Fatal("unknown generator accepted")
	}
}
