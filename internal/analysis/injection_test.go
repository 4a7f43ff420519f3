package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// analyzeSynthetic runs the full suite over src, type-checked by
// checkSynthetic. This simulates editing a real module package without
// touching the tree.
func analyzeSynthetic(t *testing.T, importPath, src string) []analysis.Finding {
	t.Helper()
	findings, err := analysis.RunAnalyzers([]*analysis.Unit{checkSynthetic(t, importPath, src)}, analysis.All())
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	return findings
}

// checkSynthetic type-checks src as a single-file package under the
// given import path, imports resolved through export data.
func checkSynthetic(t *testing.T, importPath, src string) *analysis.Unit {
	t.Helper()
	file := filepath.Join(t.TempDir(), "x.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := analysis.NewLoader("")
	unit, err := analysis.CheckFiles(l.Fset, importPath, []string{file}, l)
	if err != nil {
		t.Fatalf("CheckFiles: %v", err)
	}
	return unit
}

// byAnalyzer filters findings to one analyzer's.
func byAnalyzer(findings []analysis.Finding, name string) []analysis.Finding {
	var out []analysis.Finding
	for _, f := range findings {
		if f.Analyzer == name {
			out = append(out, f)
		}
	}
	return out
}

// Acceptance pin: an order-dependent ForEach fold added to a real
// automaton package must fail the lint gate.
func TestInjectedOrderDependentFoldIsFlagged(t *testing.T) {
	findings := analyzeSynthetic(t, "repro/internal/algo/randomwalk", `package randomwalk

import (
	"math/rand"

	"repro/internal/fssga"
)

type S int8

func lastSeen(self S, view *fssga.View[S], rnd *rand.Rand) S {
	var last S
	view.ForEach(func(t S, _ int) {
		last = t
	})
	return last
}
`)
	got := byAnalyzer(findings, "symcontract")
	if len(got) != 1 || !strings.Contains(got[0].Message, "depends on iteration order") {
		t.Fatalf("findings = %v, want one symcontract order-dependence diagnostic", findings)
	}
}

// Acceptance pin: an observation cap that data-flows from the network
// size, through a constructor and a struct field, must fail the lint
// gate, and the -contracts report must call its footprint unbounded.
func TestInjectedNSizeCapIsFlagged(t *testing.T) {
	const src = `package census

import (
	"math/rand"

	"repro/internal/fssga"
	"repro/internal/graph"
)

type S int8

type auto struct{ cap int }

func newAuto(g *graph.Graph) auto { return auto{cap: g.NumNodes()} }

func (a auto) Step(self S, view *fssga.View[S], rnd *rand.Rand) S {
	if view.Count(a.cap, func(s S) bool { return s > 0 }) > 0 {
		return 1
	}
	return self
}
`
	findings := analyzeSynthetic(t, "repro/internal/algo/census", src)
	if len(findings) != 1 || findings[0].Analyzer != "symcontract" || !strings.Contains(findings[0].Message, "independent of n") {
		t.Fatalf("findings = %v, want exactly one symcontract non-constant-cap diagnostic", findings)
	}
	unit := checkSynthetic(t, "repro/internal/algo/census", src)
	if cs := analysis.InferContracts([]*analysis.Unit{unit}); len(cs) != 1 || cs[0].Bounded {
		t.Fatalf("InferContracts = %+v, want one unbounded contract", cs)
	}
}

// Acceptance pin: an fmt.Sprintf (boxing its operands into ...any and
// crossing into fmt) added to a //fssga:hotpath function must fail the
// lint gate, while the same function unmarked stays clean.
func TestInjectedSprintfInHotpathIsFlagged(t *testing.T) {
	const unmarked = `package fssga

import "fmt"

func label(id int) string { return fmt.Sprintf("node-%d", id) }
`
	if findings := analyzeSynthetic(t, "repro/internal/fssga", unmarked); len(findings) != 0 {
		t.Fatalf("unmarked Sprintf wrongly flagged: %v", findings)
	}
	const marked = `package fssga

import "fmt"

//fssga:hotpath
func label(id int) string { return fmt.Sprintf("node-%d", id) }
`
	findings := analyzeSynthetic(t, "repro/internal/fssga", marked)
	hot := byAnalyzer(findings, "hotalloc")
	if len(hot) != 1 || !strings.Contains(hot[0].Message, "fmt.Sprintf") {
		t.Fatalf("findings = %v, want one hotalloc fmt.Sprintf diagnostic", findings)
	}
}

// A suppression directive without a reason is no directive: a bare
// //fssga:alloc or //fssga:nondet line above a finding leaves it live.
func TestBareDirectiveSuppressesNothing(t *testing.T) {
	for _, tc := range []struct{ analyzer, src string }{
		{"hotalloc", `package fssga

import "fmt"

//fssga:hotpath
func label(id int) string {
	//fssga:alloc
	return fmt.Sprintf("node-%d", id)
}
`},
		{"globalwrite", `package fssga

import "math/rand"

type View[S any] struct{ states []S }

var epoch int

func step(self int, view *View[int], rnd *rand.Rand) int {
	//fssga:nondet
	epoch++
	return self
}
`},
	} {
		if got := byAnalyzer(analyzeSynthetic(t, "repro/internal/fssga", tc.src), tc.analyzer); len(got) != 1 {
			t.Errorf("%s under a bare directive: findings = %v, want one", tc.analyzer, got)
		}
	}
}

// Acceptance pin: unclamped arithmetic on returned state must fail the
// lint gate, while the mod-reduced original stays clean.
func TestInjectedUnboundedStateArithmeticIsFlagged(t *testing.T) {
	const clamped = `package synchronizer

import (
	"math/rand"

	"repro/internal/fssga"
)

type S int8

func tick(self S, view *fssga.View[S], rnd *rand.Rand) S {
	return (self + 1) % 4
}
`
	if findings := analyzeSynthetic(t, "repro/internal/algo/synchronizer", clamped); len(findings) != 0 {
		t.Fatalf("mod-reduced step wrongly flagged: %v", findings)
	}
	const unclamped = `package synchronizer

import (
	"math/rand"

	"repro/internal/fssga"
)

type S int8

func tick(self S, view *fssga.View[S], rnd *rand.Rand) S {
	return self + 1
}
`
	findings := analyzeSynthetic(t, "repro/internal/algo/synchronizer", unclamped)
	fin := byAnalyzer(findings, "finstate")
	if len(fin) != 1 || !strings.Contains(fin[0].Message, "grows without bound") {
		t.Fatalf("findings = %v, want one finstate unbounded-growth diagnostic", findings)
	}
}
