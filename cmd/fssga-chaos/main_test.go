package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/trace"
)

// The smoke preset is the CI gate: it must exit 0, and its transcript must
// show the β synchronizer falling to χ-targeting with the failure pipeline
// (replay + shrink) green.
func TestSmokeCampaignPasses(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-smoke", "-out=" + t.TempDir()}, &out)
	if code != 0 {
		t.Fatalf("smoke exited %d:\n%s", code, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "beta") || !strings.Contains(text, "BROKE") {
		t.Fatalf("smoke transcript shows no β break:\n%s", text)
	}
	if !strings.Contains(text, "replay ok; shrunk") {
		t.Fatalf("failure pipeline did not run:\n%s", text)
	}
}

// An expected-to-survive cell that breaks must write an artifact and make
// the campaign exit non-zero. The break is forced honestly: shortestpath
// is 0-sensitive (expSurvive), but a one-round budget leaves it
// unconverged, so its final distance oracle fails.
func TestUnexpectedBreakFailsAndWritesArtifact(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	code := run([]string{
		"-targets=shortestpath", "-adversaries=burst", "-graphs=gnp", "-sizes=24",
		"-seeds=1", "-workers=1", "-max-rounds=1", "-attack=1", "-out=" + dir,
	}, &out)
	if code != 1 {
		t.Fatalf("truncated run exited %d, want 1:\n%s", code, out.String())
	}
	arts, err := filepath.Glob(filepath.Join(dir, "chaos-*.json"))
	if err != nil || len(arts) == 0 {
		t.Fatalf("no artifact written (%v):\n%s", err, out.String())
	}
	// The artifact itself must replay bit-identically.
	var rep bytes.Buffer
	if code := run([]string{"-replay=" + arts[0]}, &rep); code != 0 {
		t.Fatalf("replay of artifact exited %d:\n%s", code, rep.String())
	}
	if !strings.Contains(rep.String(), "bit-identical") {
		t.Fatalf("replay transcript: %s", rep.String())
	}
}

func TestReplayDetectsDoctoredArtifact(t *testing.T) {
	log, err := chaos.Run(chaos.Config{
		Target:    "beta",
		Adversary: "chi",
		Graph:     trace.GraphSpec{Gen: "gnp", N: 24, Seed: 5},
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if log.Violation == "" {
		t.Fatal("β × chi survived; cannot test replay divergence")
	}
	log.Digests[len(log.Digests)-1] ^= 1
	path := filepath.Join(t.TempDir(), "doctored.json")
	if err := log.Save(path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-replay=" + path}, &out); code != 1 {
		t.Fatalf("doctored artifact exited %d, want 1:\n%s", code, out.String())
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-sizes=banana"}, &out); code != 2 {
		t.Fatalf("bad size exited %d, want 2", code)
	}
	if code := run([]string{"-targets=nope"}, &out); code != 2 {
		t.Fatalf("unknown target exited %d, want 2", code)
	}
	if code := run([]string{"-replay=" + filepath.Join(t.TempDir(), "missing.json")}, &out); code != 2 {
		t.Fatalf("missing artifact exited %d, want 2", code)
	}
}

// TestReplayCorruptFixtures: corrupt or malformed artifacts exit 2 with
// a structured error, and one naming a target the runner does not know
// fails verification with exit 1 — the replay path never panics.
func TestReplayCorruptFixtures(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", "", 2},
		{"truncated", `{"target":"census","graph":{"gen":"cyc`, 2},
		{"not json", "== garbage ==", 2},
		{"wrong shape", `{"target": 7}`, 2},
		{"bad event kind", `{"target":"census","graph":{"gen":"cycle","n":8},"events":[{"step":1,"kind":"?"}]}`, 2},
		{"digest count", `{"target":"census","graph":{"gen":"cycle","n":8},"rounds":2,"digests":[1]}`, 2},
		{"node out of range", `{"target":"census","graph":{"gen":"cycle","n":8},"events":[{"step":1,"kind":"node","node":80}]}`, 2},
		{"unknown target", `{"target":"nonesuch","graph":{"gen":"cycle","n":8}}`, 1},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if code := run([]string{"-replay", path}, &buf); code != tc.want {
			t.Errorf("%s: exit %d, want %d:\n%s", tc.name, code, tc.want, buf.String())
		}
	}
}

// TestCrashSoakSmoke runs the -crash preset end to end.
func TestCrashSoakSmoke(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-crash", "-crash-n=36", "-crash-rounds=12"}, &out); code != 0 {
		t.Fatalf("crash soak exited %d:\n%s", code, out.String())
	}
	for _, want := range []string{"crash soak:", "units=", "crash soak passed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
