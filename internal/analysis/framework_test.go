package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

func TestLookup(t *testing.T) {
	all, err := analysis.Lookup("")
	if err != nil || len(all) != 14 {
		t.Fatalf("Lookup(\"\") = %d analyzers, err %v; want 14, nil", len(all), err)
	}
	subset, err := analysis.Lookup("maporder, detrand")
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 || subset[0].Name != "detrand" || subset[1].Name != "maporder" {
		t.Fatalf("Lookup preserves suite order: got %v", names(subset))
	}
	if _, err := analysis.Lookup("detrand,bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("Lookup with unknown name: err = %v, want mention of bogus", err)
	}
}

func names(as []*analysis.Analyzer) []string {
	var out []string
	for _, a := range as {
		out = append(out, a.Name)
	}
	return out
}

func TestDeterminismCritical(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/fssga":                             true,
		"repro/internal/mc":                                true,
		"repro/cmd/fssga-bench":                            true,
		"repro/internal/analysis":                          true,
		"repro/internal/analysis/analysistest":             true,
		"repro/internal/analysis_test":                     true, // external test package variant
		"repro/examples/basic":                             false,
		"repro/internal/fssga [repro/internal/fssga.test]": true, // go vet test build
		"detrand": true, // fixtures opt in wholesale
	} {
		if got := analysis.DeterminismCritical(path); got != want {
			t.Errorf("DeterminismCritical(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := analysis.Finding{File: "a/b.go", Line: 3, Col: 7, Analyzer: "detrand", Message: "m"}
	if got, want := f.String(), "a/b.go:3:7: detrand: m"; got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}

// TestLoadPatternsRealPackage exercises the export-data loader against a
// real module package, including its in-package tests.
func TestLoadPatternsRealPackage(t *testing.T) {
	l := analysis.NewLoader("")
	units, err := l.LoadPatterns("repro/internal/graph")
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	if len(units) == 0 {
		t.Fatal("LoadPatterns returned no units")
	}
	for _, u := range units {
		if u.Pkg == nil || u.Info == nil || len(u.Files) == 0 {
			t.Errorf("unit %q incompletely loaded", u.Path)
		}
	}
	if units[0].Path != "repro/internal/graph" {
		t.Errorf("first unit path = %q", units[0].Path)
	}
	if _, err := analysis.RunAnalyzers(units, analysis.All()); err != nil {
		t.Fatalf("RunAnalyzers over real package: %v", err)
	}
}

// TestLoadPatternsXTestVariantDependents pins the phase-3 recompilation
// rule: an external _test package may import both its own package (the
// test variant) and module packages layered on top of it — as
// repro/internal/fssga's differential suite imports the algo packages —
// and the loader must re-check those dependents against the variant
// rather than hand the type checker two incompatible twins of the
// underlying package.
func TestLoadPatternsXTestVariantDependents(t *testing.T) {
	l := analysis.NewLoader("")
	units, err := l.LoadPatterns("repro/internal/fssga")
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	var xtest bool
	for _, u := range units {
		if u.Path == "repro/internal/fssga_test" {
			xtest = true
		}
	}
	if !xtest {
		t.Fatal("no repro/internal/fssga_test unit loaded; the variant-dependent case is no longer covered")
	}
}
