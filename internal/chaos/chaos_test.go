package chaos

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/trace"

	"repro/internal/testutil"
)

func gnp24(seed int64) trace.GraphSpec { return trace.GraphSpec{Gen: "gnp", N: 24, Seed: seed} }

// The acceptance criterion of the chaos subsystem, end to end: the
// χ-targeting adversary breaks the Θ(n)-sensitive β synchronizer, while
// the 0-sensitive census and shortest-path targets run the same campaign
// cell unharmed (their χ is empty, so the adversary has nothing to aim
// at).
func TestChiBreaksBetaNotRobustTargets(t *testing.T) {
	testutil.NoLeak(t)
	cfg := Config{Target: "beta", Adversary: "chi", Graph: gnp24(5), Seed: 11}
	log, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if log.Violation == "" {
		t.Fatal("χ-targeting left the β synchronizer intact")
	}
	if !log.Critical {
		t.Fatal("β break not labelled critical — χ bookkeeping is wrong")
	}
	if len(log.Events) == 0 {
		t.Fatal("violation with no recorded events")
	}
	for _, target := range []string{"census", "shortestpath", "bfs"} {
		cfg := Config{Target: target, Adversary: "chi", Graph: gnp24(5), Seed: 11}
		log, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if log.Violation != "" {
			t.Errorf("%s × chi: unexpected violation %q", target, log.Violation)
		}
		if len(log.Events) != 0 {
			t.Errorf("%s has empty χ but the adversary delivered %d events", target, len(log.Events))
		}
	}
}

// Every 0-sensitive target must survive every adversary at defaults — the
// monitors prove resilience, not just absence of crashes.
func TestRobustTargetsSurviveAllAdversaries(t *testing.T) {
	testutil.NoLeak(t)
	for _, target := range []string{"census", "shortestpath", "bfs"} {
		for _, adv := range AdversaryNames {
			cfg := Config{Target: target, Adversary: adv, Graph: gnp24(3), Seed: 7}
			log, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s × %s: %v", target, adv, err)
			}
			if log.Violation != "" {
				t.Errorf("%s × %s: violation %q at round %d", target, adv, log.Violation, log.Round)
			}
		}
	}
}

func TestRunFillsDefaultsAndLog(t *testing.T) {
	testutil.NoLeak(t)
	log, err := Run(Config{Target: "census", Adversary: "burst", Graph: gnp24(1), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if log.AttackRounds != 48 || log.MaxRounds != 48+4*24+30 {
		t.Errorf("default horizons wrong: attack=%d max=%d", log.AttackRounds, log.MaxRounds)
	}
	if log.Rounds == 0 || len(log.Digests) != log.Rounds {
		t.Errorf("rounds=%d digests=%d: want one digest per round", log.Rounds, len(log.Digests))
	}
	if len(log.Events) == 0 {
		t.Error("burst adversary delivered nothing")
	}
	if log.Target != "census" || log.Adversary != "burst" || log.Workers != 1 {
		t.Errorf("log header wrong: %+v", log)
	}
}

func TestRunRejectsUnknowns(t *testing.T) {
	testutil.NoLeak(t)
	if _, err := Run(Config{Target: "nope", Adversary: "chi", Graph: gnp24(1)}); err == nil {
		t.Fatal("unknown target accepted")
	}
	if _, err := Run(Config{Target: "census", Adversary: "nope", Graph: gnp24(1)}); err == nil {
		t.Fatal("unknown adversary accepted")
	}
	if _, err := Run(Config{Target: "census", Adversary: "chi", Graph: trace.GraphSpec{Gen: "nope", N: 5}}); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

// A run is a function of its config, and record/replay is
// bit-identical: a second run of the same config writes the same log,
// and re-delivering the recorded events on a rebuilt topology
// reproduces the violation, the round it struck, and every per-round
// state digest. Replay never runs an adversary, so only the second run
// checks the adversaries' streams.
func TestReplayBitIdentical(t *testing.T) {
	testutil.NoLeak(t)
	for _, cell := range []struct {
		target, adv string
		graph       trace.GraphSpec
	}{
		{"beta", "chi", gnp24(9)},
		// β's first lost critical node ends the run, so two runs whose
		// χ streams differ can still pick the same node. Every inner
		// node of a path is critical, so here the pick is among 254.
		{"beta", "chi", trace.GraphSpec{Gen: "path", N: 256, Seed: 9}},
		{"census", "burst", gnp24(9)},
		{"shortestpath", "cut", gnp24(9)},
		// Every edge of a tree is a bridge, so the cut adversary's
		// stream chooses among several.
		{"shortestpath", "cut", trace.GraphSpec{Gen: "tree", N: 24, Seed: 9}},
		{"bfs", "random", gnp24(9)},
	} {
		cfg := Config{Target: cell.target, Adversary: cell.adv, Graph: cell.graph, Seed: 13}
		log, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s × %s on %s: %v", cell.target, cell.adv, cell.graph.Gen, err)
		}
		again, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s × %s on %s: second run: %v", cell.target, cell.adv, cell.graph.Gen, err)
		}
		if !reflect.DeepEqual(again, log) {
			t.Errorf("%s × %s on %s: a second run of the same config wrote a different log", cell.target, cell.adv, cell.graph.Gen)
		}
		if _, err := VerifyReplay(log); err != nil {
			t.Errorf("%s × %s on %s: %v", cell.target, cell.adv, cell.graph.Gen, err)
		}
	}
}

// Worker count is execution detail, not semantics: a run recorded with
// serial rounds replays digest-identically on parallel rounds.
func TestReplayIdenticalAcrossWorkerCounts(t *testing.T) {
	testutil.NoLeak(t)
	cfg := Config{Target: "census", Adversary: "burst", Graph: gnp24(21), Seed: 17, Workers: 1}
	log, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par := *log
	par.Workers = 4
	re, err := ReplayLog(&par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re.Digests, log.Digests) {
		t.Fatal("parallel replay digests diverge from serial recording")
	}
	if re.Rounds != log.Rounds || re.Violation != log.Violation {
		t.Fatalf("parallel replay outcome differs: %d/%q vs %d/%q",
			re.Rounds, re.Violation, log.Rounds, log.Violation)
	}
}

// VerifyReplay must detect a doctored artifact, not just bless everything.
func TestVerifyReplayDetectsTampering(t *testing.T) {
	testutil.NoLeak(t)
	log, err := Run(Config{Target: "beta", Adversary: "chi", Graph: gnp24(5), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	bad := *log
	bad.Digests = append([]uint64(nil), log.Digests...)
	bad.Digests[0] ^= 1
	if _, err := VerifyReplay(&bad); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("tampered digests accepted (err=%v)", err)
	}
	bad2 := *log
	bad2.Violation = ""
	if _, err := VerifyReplay(&bad2); err == nil {
		t.Fatal("tampered violation accepted")
	}
}

func TestRunLogArtifactRoundTripsThroughDisk(t *testing.T) {
	testutil.NoLeak(t)
	log, err := Run(Config{Target: "beta", Adversary: "chi", Graph: gnp24(5), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/fail.json"
	if err := log.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.LoadRunLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyReplay(loaded); err != nil {
		t.Fatalf("replay from disk artifact: %v", err)
	}
}

func TestTargetRegistry(t *testing.T) {
	testutil.NoLeak(t)
	names := TargetNames()
	if len(names) < 5 {
		t.Fatalf("registry too small: %v", names)
	}
	// The names set fssga-chaos's default -targets order.
	if !sort.StringsAreSorted(names) {
		t.Fatalf("TargetNames() = %v, want sorted", names)
	}
	for _, n := range names {
		b, err := LookupTarget(n)
		if err != nil || b.Name != n {
			t.Errorf("LookupTarget(%q) = %+v, %v", n, b, err)
		}
	}
	if _, err := LookupTarget("nope"); err == nil {
		t.Fatal("unknown target accepted")
	}
}

// The election target's ≤1-leader monitor stays green on a fault-free run
// (transient premature leaders must be absorbed by the persistence grace).
func TestElectionLeaderMonitorFaultFree(t *testing.T) {
	testutil.NoLeak(t)
	cfg := Config{
		Target:    "election",
		Adversary: "none",
		Graph:     trace.GraphSpec{Gen: "gnp", N: 10, Seed: 2},
		Seed:      4,
		MaxRounds: 3000,
	}
	log, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if log.Violation != "" {
		t.Fatalf("election monitor fired on a fault-free run: %q (round %d)", log.Violation, log.Round)
	}
}
