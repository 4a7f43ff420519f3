package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func TestLookup(t *testing.T) {
	all, err := analysis.Lookup("")
	if err != nil || len(all) != 5 {
		t.Fatalf("Lookup(\"\") = %d analyzers, err %v; want 5, nil", len(all), err)
	}
	subset, err := analysis.Lookup("hotalloc, viewpure")
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 || subset[0].Name != "viewpure" || subset[1].Name != "hotalloc" {
		t.Fatalf("Lookup preserves suite order: got %v", names(subset))
	}
	if _, err := analysis.Lookup("viewpure,bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
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

func TestFindingString(t *testing.T) {
	f := analysis.Finding{File: "a/b.go", Line: 3, Col: 7, Analyzer: "globalwrite", Message: "m"}
	if got, want := f.String(), "a/b.go:3:7: globalwrite: m"; got != want {
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

// TestLoadPatternsNonTargetDependents pins the type-identity rule of
// Loader.Import: c's in-package test imports b, which is not a target
// but imports the target a, and hands b's a-typed value to c, which
// takes a's source-checked type. Read from export data, b would name a
// second copy of a and the test variant of c would fail to type-check.
func TestLoadPatternsNonTargetDependents(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":      "module tmpmod\n\ngo 1.22\n",
		"a/a.go":      "package a\n\ntype T struct{ N int }\n\nfunc Use(T) {}\n",
		"b/b.go":      "package b\n\nimport \"tmpmod/a\"\n\nfunc Make() a.T { return a.T{N: 1} }\n",
		"c/c.go":      "package c\n\nimport \"tmpmod/a\"\n\nfunc Run(t a.T) { a.Use(t) }\n",
		"c/c_test.go": "package c\n\nimport (\n\t\"testing\"\n\n\t\"tmpmod/b\"\n)\n\nfunc TestRun(t *testing.T) { Run(b.Make()) }\n",
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	units, err := analysis.NewLoader(dir).LoadPatterns("./a", "./c")
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	var paths []string
	for _, u := range units {
		paths = append(paths, u.Path)
	}
	if strings.Join(paths, " ") != "tmpmod/a tmpmod/c" {
		t.Fatalf("units %v, want tmpmod/a and tmpmod/c", paths)
	}
}
