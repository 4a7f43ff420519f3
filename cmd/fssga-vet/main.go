// Command fssga-vet runs the repository's 5 model-contract and hot-path
// analyzers (viewpure, globalwrite, symcontract, finstate, hotalloc)
// over Go packages, and reports the inferred mod-thresh footprints
// (-contracts). Seed determinism and the concurrency contracts are
// checked by the differential, replay, race, leak and handoff tests
// instead (see internal/analysis). It has two modes:
//
// Standalone, over go package patterns (the default is ./...):
//
//	fssga-vet [-json] [-analyzers viewpure,hotalloc] [patterns...]
//	fssga-vet -fixtures internal/analysis/testdata/src globalwrite
//	fssga-vet -audit repro/...     # inventory suppression directives
//	fssga-vet -audit -ratchet scripts/suppression_ratchet.txt repro/...
//	fssga-vet -contracts repro/... # inferred mod-thresh footprints
//
// As a go vet tool, speaking the cmd/go vet-tool protocol (-V=full,
// -flags, and a single JSON .cfg argument per unit):
//
//	go vet -vettool=$(which fssga-vet) ./...
//
// With -json, output is a versioned envelope {"schemaVersion": 3, ...}
// carrying a "findings", "directives" or "contracts" array depending on
// the mode, each in a stable sorted order.
//
// Exit status: 0 when clean, 1 when the analyzers report findings (or
// -audit finds a stale directive or a suppression count above its
// -ratchet ceiling), 2 when loading or type-checking fails — including
// patterns that match no packages — or when the -ratchet file cannot be
// read or has a bad line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

const progName = "fssga-vet"

// schemaVersion tags every -json envelope; bump it when the output
// shape changes incompatibly. Version 1 was the bare findings array;
// version 2 wrapped it in the envelope; version 3 added the "directive"
// kind field to audit entries when //fssga:alloc joined //fssga:nondet.
const schemaVersion = 3

type findingsEnvelope struct {
	SchemaVersion int                `json:"schemaVersion"`
	Findings      []analysis.Finding `json:"findings"`
}

type auditEnvelope struct {
	SchemaVersion int                  `json:"schemaVersion"`
	Directives    []analysis.Directive `json:"directives"`
}

type contractsEnvelope struct {
	SchemaVersion int                 `json:"schemaVersion"`
	Contracts     []analysis.Contract `json:"contracts"`
}

func emitJSON(stdout, stderr io.Writer, v any) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return 0
}

// checkRatchet compares per-analyzer live-suppression counts against the
// ceilings in path (lines of "analyzer N", # comments). Every analyzer
// with suppressions must have a ceiling — an unlisted analyzer's ceiling
// is zero — so a new suppression always needs an explicit, reviewable
// ceiling bump. Counts below a ceiling are reported as a reminder to
// ratchet it down; only counts above one fail. A line naming an analyzer
// the suite does not have is a bad line: its ceiling guards nothing.
func checkRatchet(path string, counts map[string]int, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "%s: reading suppression ratchet: %v\n", progName, err)
		return 2
	}
	known := make(map[string]bool)
	for _, a := range analysis.All() {
		known[a.Name] = true
	}
	ceilings := make(map[string]int)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var n int
		if len(fields) != 2 {
			fmt.Fprintf(stderr, "%s: %s:%d: want \"analyzer count\", got %q\n", progName, path, i+1, line)
			return 2
		}
		if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil || n < 0 {
			fmt.Fprintf(stderr, "%s: %s:%d: bad count %q\n", progName, path, i+1, fields[1])
			return 2
		}
		if !known[fields[0]] {
			fmt.Fprintf(stderr, "%s: %s:%d: no analyzer %q in the suite: delete the line\n", progName, path, i+1, fields[0])
			return 2
		}
		ceilings[fields[0]] = n
	}
	over := 0
	for _, a := range analysis.All() {
		name := a.Name
		switch c, ceil := counts[name], ceilings[name]; {
		case c > ceil:
			fmt.Fprintf(stderr, "%s: %d live %s suppression(s) exceed the ceiling of %d in %s: fix the diagnostics or raise the ceiling with a written justification\n",
				progName, c, name, ceil, path)
			over++
		case c < ceil:
			fmt.Fprintf(stderr, "%s: note: %s has %d live suppression(s), ceiling %d in %s can ratchet down\n",
				progName, name, c, ceil, path)
		}
	}
	if over > 0 {
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// The go command invokes vet tools positionally, before any of our
	// own flags: `tool -V=full`, `tool -flags`, `tool <unit>.cfg`.
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full" || args[0] == "--V=full":
			fmt.Fprintf(stdout, "%s version v1, deterministic build\n", progName)
			return 0
		case args[0] == "-flags" || args[0] == "--flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return runVettool(args[0], stderr)
		}
	}

	fs := flag.NewFlagSet(progName, flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit a versioned JSON envelope on stdout")
	names := fs.String("analyzers", "", "comma-separated subset of analyzers (default: all)")
	fixtureRoot := fs.String("fixtures", "", "treat patterns as fixture package names under this directory")
	audit := fs.Bool("audit", false, "list suppression directives with audit status; exit 1 if any is stale")
	ratchet := fs.String("ratchet", "", "with -audit: ceiling file of per-analyzer suppression counts; exceeding a ceiling exits 1")
	contracts := fs.Bool("contracts", false, "emit inferred mod-thresh observation contracts instead of findings")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [-json] [-analyzers names] [-fixtures dir] [-audit [-ratchet file]|-contracts] [patterns]\n\nAnalyzers:\n", progName)
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := analysis.Lookup(*names)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	loader := analysis.NewLoader("")
	var units []*analysis.Unit
	if *fixtureRoot != "" {
		loader.FixtureRoot = *fixtureRoot
		for _, p := range fs.Args() {
			u, err := loader.LoadFixture(p)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			units = append(units, u)
		}
	} else {
		patterns := fs.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		units, err = loader.LoadPatterns(patterns...)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if len(units) == 0 {
		// go list accepts relative patterns that match nothing with exit 0,
		// so an empty load would otherwise report a vacuously clean tree.
		what := strings.Join(fs.Args(), " ")
		if what == "" {
			what = "(no patterns)"
		}
		fmt.Fprintf(stderr, "%s: no packages matched %s\n", progName, what)
		return 2
	}

	switch {
	case *audit:
		// Staleness is judged against the full suite, whatever -analyzers
		// selected: a directive absorbing any analyzer's diagnostic is live.
		dirs, err := analysis.AuditDirectives(units, analysis.All())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if *jsonOut {
			if code := emitJSON(stdout, stderr, auditEnvelope{schemaVersion, dirs}); code != 0 {
				return code
			}
		} else {
			for _, d := range dirs {
				fmt.Fprintln(stdout, d)
			}
		}
		stale := 0
		for _, d := range dirs {
			if d.Stale() {
				stale++
			}
		}
		if stale > 0 {
			fmt.Fprintf(stderr, "%s: %d stale suppression directive(s) suppress nothing; remove them\n", progName, stale)
			return 1
		}
		if *ratchet != "" {
			return checkRatchet(*ratchet, analysis.SuppressionCounts(dirs), stderr)
		}
		return 0

	case *contracts:
		cs := analysis.InferContracts(units)
		if cs == nil {
			cs = []analysis.Contract{}
		}
		if *jsonOut {
			return emitJSON(stdout, stderr, contractsEnvelope{schemaVersion, cs})
		}
		for _, c := range cs {
			fmt.Fprintln(stdout, c)
		}
		return 0
	}

	findings, err := analysis.RunAnalyzers(units, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *jsonOut {
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if code := emitJSON(stdout, stderr, findingsEnvelope{schemaVersion, findings}); code != 0 {
			return code
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// vetConfig is the subset of cmd/go's vet-tool JSON configuration the
// driver needs: one type-checkable unit with pre-resolved imports.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// lookup opens the export data for an import path as the compiler
// recorded it for this unit.
func (c *vetConfig) lookup(path string) (io.ReadCloser, error) {
	if mapped, ok := c.ImportMap[path]; ok {
		path = mapped
	}
	file, ok := c.PackageFile[path]
	if !ok {
		return nil, fmt.Errorf("no package file for %q in unit %s", path, c.ImportPath)
	}
	return os.Open(file)
}

// writeVetx records the (empty) facts file the go command expects from a
// vet tool; fssga-vet's analyzers are fact-free.
func (c *vetConfig) writeVetx() error {
	if c.VetxOutput == "" {
		return nil
	}
	return os.WriteFile(c.VetxOutput, []byte(progName+" no facts\n"), 0o666)
}

func runVettool(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "%s: parsing %s: %v\n", progName, cfgPath, err)
		return 2
	}
	if cfg.VetxOnly {
		// Dependency-only visit: no diagnostics wanted, just facts.
		if err := cfg.writeVetx(); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		return 0
	}
	if cfg.Compiler != "" && cfg.Compiler != "gc" {
		fmt.Fprintf(stderr, "%s: unsupported compiler %q\n", progName, cfg.Compiler)
		return 2
	}
	fset := token.NewFileSet()
	unit, err := analysis.CheckFiles(fset, cfg.ImportPath, cfg.GoFiles, importer.ForCompiler(fset, "gc", cfg.lookup))
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			// The compile step will report the error; stay quiet.
			if werr := cfg.writeVetx(); werr != nil {
				fmt.Fprintln(stderr, werr)
				return 2
			}
			return 0
		}
		fmt.Fprintln(stderr, err)
		return 2
	}
	findings, err := analysis.RunAnalyzers([]*analysis.Unit{unit}, analysis.All())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := cfg.writeVetx(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stderr, f)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
