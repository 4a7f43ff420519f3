package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const fixtureRoot = "../../internal/analysis/testdata/src"

// The committed tree must be clean: every violation the suite ever found
// is fixed or carries an audited //fssga:nondet directive.
func TestCleanTreeExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"repro/..."}, &out, &errb); code != 0 {
		t.Fatalf("fssga-vet repro/... = exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean tree produced findings:\n%s", out.String())
	}
}

func TestKnownBadFixtureExitsOne(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-fixtures", fixtureRoot, "globalwrite"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), `globalwrite: write to package-level variable "counter"`) {
		t.Fatalf("findings missing globalwrite diagnostic:\n%s", out.String())
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	// finstate also flags the fixture; the filter keeps one analyzer.
	code := run([]string{"-json", "-analyzers", "globalwrite", "-fixtures", fixtureRoot, "globalwrite"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, errb.String())
	}
	var env findingsEnvelope
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, out.String())
	}
	if env.SchemaVersion != schemaVersion {
		t.Fatalf("schemaVersion = %d, want %d", env.SchemaVersion, schemaVersion)
	}
	if len(env.Findings) == 0 {
		t.Fatal("-json produced an empty findings array for a known-bad fixture")
	}
	for _, f := range env.Findings {
		if f.File == "" || f.Line <= 0 || f.Col <= 0 || f.Analyzer != "globalwrite" || f.Message == "" {
			t.Fatalf("incomplete finding: %+v", f)
		}
	}
	if !sort.SliceIsSorted(env.Findings, func(i, j int) bool {
		a, b := env.Findings[i], env.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	}) {
		t.Fatalf("findings are not in the stable sort order:\n%s", out.String())
	}
}

func TestJSONEmptyFindingsOnClean(t *testing.T) {
	var out, errb bytes.Buffer
	// The globalwrite fixture is clean under hotalloc, so the filter must
	// yield exit 0 and an empty findings array, not null.
	code := run([]string{"-json", "-analyzers", "hotalloc", "-fixtures", fixtureRoot, "globalwrite"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), `"findings": []`) {
		t.Fatalf("clean -json output = %q, want an explicit empty findings array", out.String())
	}
}

// TestJSONGolden pins the -json envelope byte-for-byte: schemaVersion,
// field names, ordering and indentation are all part of the tool's
// contract with scripts/check.sh and any CI consumer. One golden covers
// every analyzer, since the envelope's shape does not depend on which
// analyzer reported a finding.
func TestJSONGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"hotalloc.golden.json", []string{"-json", "-analyzers", "hotalloc", "-fixtures", fixtureRoot, "hotalloc"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 1 {
				t.Fatalf("exit %d, want 1\nstderr:\n%s", code, errb.String())
			}
			goldenPath := filepath.Join("testdata", tc.golden)
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("reading golden file: %v (regenerate with: go run . %s > cmd/fssga-vet/%s)", err, strings.Join(tc.args, " "), goldenPath)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("-json output drifted from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, out.String(), want)
			}
		})
	}
}

// Every committed //fssga:nondet directive must still suppress a live
// diagnostic; -audit is the gate that keeps the allowlist honest.
func TestAuditCleanTreeHasNoStaleDirectives(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-audit", "repro/..."}, &out, &errb); code != 0 {
		t.Fatalf("fssga-vet -audit repro/... = exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "STALE") {
		t.Fatalf("audit reports stale directives:\n%s", out.String())
	}
	// The semilattice fold suppression is the audit's canary: it must be
	// listed, attributed to symcontract.
	found := false
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "semilattice.go") && strings.Contains(line, "symcontract") {
			found = true
		}
	}
	if !found {
		t.Fatalf("audit listing lacks the semilattice symcontract suppression:\n%s", out.String())
	}
}

func TestAuditStaleDirectiveExitsOne(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-audit", "-json", "-fixtures", fixtureRoot, "auditstale"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	var env auditEnvelope
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatalf("decoding -audit -json output: %v\n%s", err, out.String())
	}
	if env.SchemaVersion != schemaVersion || len(env.Directives) != 1 {
		t.Fatalf("envelope = %+v, want schema %d with one directive", env, schemaVersion)
	}
	d := env.Directives[0]
	if !d.Stale() || d.Reason != "left behind after the offending call was removed" {
		t.Fatalf("directive = %+v, want stale with the fixture's reason", d)
	}
	// The "directive" kind field is what schemaVersion 3 added: consumers
	// distinguish //fssga:nondet from //fssga:alloc entries by it.
	if !strings.Contains(out.String(), `"directive": "//fssga:nondet"`) {
		t.Fatalf("-audit -json envelope lacks the directive kind field:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "stale") {
		t.Fatalf("stderr does not explain the failure:\n%s", errb.String())
	}
}

func TestContractsJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-contracts", "-json", "repro/internal/algo/twocolor"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", code, errb.String())
	}
	var env contractsEnvelope
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatalf("decoding -contracts -json output: %v\n%s", err, out.String())
	}
	if env.SchemaVersion != schemaVersion {
		t.Fatalf("schemaVersion = %d, want %d", env.SchemaVersion, schemaVersion)
	}
	for _, c := range env.Contracts {
		if c.Automaton == "(repro/internal/algo/twocolor.automaton).Step" {
			if !c.Bounded {
				t.Fatalf("twocolor contract unbounded: %+v", c)
			}
			return
		}
	}
	t.Fatalf("no contract for the twocolor automaton in %s", out.String())
}

// TestBadInvocationExitsTwo pins the argument-hardening contract: every
// way of pointing the tool at nothing — an unknown analyzer, a pattern
// go list rejects, a pattern that matches zero packages, a fixture that
// does not exist, or a fixture root with no patterns — must exit 2 with
// a diagnostic on stderr, never a vacuous clean exit 0.
func TestBadInvocationExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string // required substring of the diagnostic
	}{
		{"unknown analyzer", []string{"-analyzers", "bogus"}, "bogus"},
		{"go list failure", []string{"./no-such-dir/..."}, "no-such-dir"},
		{"nonexistent import path", []string{"repro/internal/nosuchpackage"}, "nosuchpackage"},
		{"zero-package match", []string{"-fixtures", fixtureRoot}, "no packages matched"},
		{"nonexistent fixture", []string{"-fixtures", fixtureRoot, "nosuchfixture"}, "nosuchfixture"},
		{"bad flag", []string{"-frobnicate"}, "frobnicate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 2 {
				t.Fatalf("exit %d, want 2\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
			}
			if !strings.Contains(errb.String(), tc.stderr) {
				t.Fatalf("stderr lacks %q:\n%s", tc.stderr, errb.String())
			}
		})
	}
}

// The committed suppression ratchet must fit the committed tree exactly
// from above: the audit gate goes red the moment a suppression is added
// without a ceiling bump.
func TestAuditRatchetCleanTree(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-audit", "-ratchet", "../../scripts/suppression_ratchet.txt", "repro/..."}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", code, errb.String())
	}
}

func TestAuditRatchetViolations(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name    string
		ratchet string
		code    int
		stderr  string
	}{
		{"over ceiling", "symcontract 0\n", 1, "exceed the ceiling"},
		{"unlisted analyzer is ceiling zero", "# nothing listed\n", 1, "ceiling of 0"},
		{"slack ceiling notes ratchet-down", "symcontract 99\n", 0, "can ratchet down"},
		{"malformed line", "symcontract one two\n", 2, "want \"analyzer count\""},
		{"bad count", "symcontract many\n", 2, "bad count"},
		{"analyzer not in the suite", "symcontract 5\ngoroleak 0\n", 2, "r.txt:2: no analyzer \"goroleak\" in the suite"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			// election.go carries a symcontract suppression; scope the audit
			// to one package so the fixture ceilings stay readable.
			code := run([]string{"-audit", "-ratchet", write("r.txt", tc.ratchet), "repro/internal/algo/election"}, &out, &errb)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", code, tc.code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.stderr) {
				t.Fatalf("stderr lacks %q:\n%s", tc.stderr, errb.String())
			}
		})
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-audit", "-ratchet", filepath.Join(dir, "missing.txt"), "repro/internal/algo/election"}, &out, &errb); code != 2 {
		t.Fatalf("missing ratchet file: exit %d, want 2\nstderr:\n%s", code, errb.String())
	}
}

func TestVetToolProtocolEntryPoints(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-V=full"}, &out, &errb); code != 0 {
		t.Fatalf("-V=full exit %d", code)
	}
	if !strings.HasPrefix(out.String(), "fssga-vet version") {
		t.Fatalf("-V=full output %q lacks the version prefix the go command requires", out.String())
	}
	out.Reset()
	if code := run([]string{"-flags"}, &out, &errb); code != 0 {
		t.Fatalf("-flags exit %d", code)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("-flags output = %q, want []", out.String())
	}
}

// End-to-end: build the binary and run it under `go vet -vettool` on two
// real (clean) packages, exercising the .cfg unit protocol.
func TestGoVetVettool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and shells out to go vet")
	}
	tool := filepath.Join(t.TempDir(), "fssga-vet")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command("go", "vet", "-vettool="+tool, "repro/internal/baseline", "repro/internal/stats")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool: %v\n%s", err, out)
	}
}
