package mc_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/mc"
)

// TestDeriveWitnesses pins the dynamically minimal saturation witness
// for every registered target. These are the ground-truth Theorem 3.7
// bounds the static capinfer contracts are checked against.
func TestDeriveWitnesses(t *testing.T) {
	want := map[string]mc.Witness{
		"(repro/internal/algo/twocolor.automaton).Step":     {Thresh: 1, Mod: 1},
		"(repro/internal/algo/shortestpath.automaton).Step": {Thresh: 1, Mod: 1},
		"(repro/internal/algo/census.automaton).Step":       {Thresh: 1, Mod: 1},
		"(repro/internal/algo/bfs.automaton).Step":          {Thresh: 1, Mod: 1},
		"(*repro/internal/fssga.FormalAutomaton).Step":      {Thresh: 1, Mod: 1},
		"(repro/internal/mc.parityAutomaton).Step":          {Thresh: 0, Mod: 2},
	}
	targets := mc.WitnessTargets()
	if len(targets) != len(want) {
		t.Fatalf("WitnessTargets() has %d entries, want %d", len(targets), len(want))
	}
	for _, tgt := range targets {
		tgt := tgt
		t.Run(tgt.Name, func(t *testing.T) {
			w, ok := want[tgt.Name]
			if !ok {
				t.Fatalf("unexpected target %q", tgt.Name)
			}
			got, err := mc.DeriveWitness(tgt)
			if err != nil {
				t.Fatalf("DeriveWitness: %v", err)
			}
			if got != w {
				t.Errorf("witness = %v, want %v", got, w)
			}
		})
	}
}

// TestWitnessesMatchStaticContracts is the meet-in-the-middle check:
// for every target whose capinfer contract claims a bounded non-escaping
// footprint, the dynamically minimal witness must fit under the static
// caps — threshold at most the largest declared threshold, and period
// dividing the least common multiple of the declared moduli.
func TestWitnessesMatchStaticContracts(t *testing.T) {
	for _, tgt := range mc.WitnessTargets() {
		tgt := tgt
		t.Run(tgt.Name, func(t *testing.T) {
			c := staticContract(t, tgt.Name)
			w, err := mc.DeriveWitness(tgt)
			if err != nil {
				t.Fatalf("DeriveWitness: %v", err)
			}
			if c.ForEach {
				// Escaping or ForEach-using steps make no per-call cap
				// claim; the dynamic witness existing at all is the check.
				return
			}
			maxThresh, modLCM := footprint(c)
			if w.Thresh > maxThresh {
				t.Errorf("dynamic threshold %d exceeds static cap %d (contract %+v)", w.Thresh, maxThresh, c)
			}
			if modLCM%w.Mod != 0 {
				t.Errorf("dynamic period %d does not divide static modulus lcm %d (contract %+v)", w.Mod, modLCM, c)
			}
		})
	}
}

// TestDeclaredFootprintsAreSound checks every footprint held for an
// automaton against the exhaustive multiset semantics, by brute force
// (footprintSound) rather than through DeriveWitness's own sweep: the
// witness DeriveWitness derives, and the footprint the Step declares
// through the caps and moduli it passes to its View (capinfer's static
// contract, read as one largest-threshold, lcm-of-moduli bound). ForEach
// folds, such as FormalAutomaton's, declare none. A sound footprint
// never identifies two multisets the Step tells apart.
func TestDeclaredFootprintsAreSound(t *testing.T) {
	for _, tgt := range mc.WitnessTargets() {
		tgt := tgt
		t.Run(tgt.Name, func(t *testing.T) {
			c := staticContract(t, tgt.Name)
			w, err := mc.DeriveWitness(tgt)
			if err != nil {
				t.Fatalf("DeriveWitness: %v", err)
			}
			if !footprintSound(tgt, w.Thresh, w.Mod) {
				t.Fatalf("derived witness %v is UNSOUND: two multisets it identifies transition differently", w)
			}
			if c.ForEach {
				return
			}
			if thresh, mod := footprint(c); !footprintSound(tgt, thresh, mod) {
				t.Fatalf("declared footprint (t=%d, m=%d) is UNSOUND: two multisets it identifies transition differently (contract %+v)", thresh, mod, c)
			}
		})
	}
}

// TestVerifyWitnessRejectsUnsound keeps the name of the library check
// that footprintSound replaced, and keeps the soundness checks honest:
// parity genuinely needs the period-2 footprint, so a presence-only
// (1,1) claim must be refuted, by footprintSound and by a DeriveWitness
// sweep denied any period above 1.
func TestVerifyWitnessRejectsUnsound(t *testing.T) {
	var parity mc.WitnessTarget
	for _, tgt := range mc.WitnessTargets() {
		if strings.Contains(tgt.Name, "parityAutomaton") {
			parity = tgt
		}
	}
	if parity.Name == "" {
		t.Fatal("parity target not registered")
	}
	if footprintSound(parity, 1, 1) {
		t.Fatal("footprintSound accepted a presence-only footprint for the parity automaton")
	}
	if !footprintSound(parity, 0, 2) {
		t.Fatal("footprintSound rejected parity's true (0,2) footprint")
	}
	if footprintSound(parity, -1, 2) || footprintSound(parity, 0, 0) {
		t.Fatal("footprintSound accepted a malformed footprint")
	}
	presence := parity
	presence.MaxMod = 1
	if w, err := mc.DeriveWitness(presence); err == nil {
		t.Fatalf("DeriveWitness found %v for parity with periods capped at 1", w)
	}
}

// contracts caches capinfer's contracts over repro/internal/...: loading
// and type-checking the packages is the slow part of these tests.
var contracts []analysis.Contract

// staticContract returns the bounded contract capinfer infers for the
// named automaton, failing t if there is none.
func staticContract(t *testing.T, name string) analysis.Contract {
	t.Helper()
	if contracts == nil {
		units, err := analysis.NewLoader("").LoadPatterns("repro/internal/...")
		if err != nil {
			t.Fatalf("LoadPatterns: %v", err)
		}
		contracts = analysis.InferContracts(units)
	}
	names := make([]string, len(contracts))
	for i, c := range contracts {
		if c.Automaton == name {
			if !c.Bounded {
				t.Fatalf("static contract claims unbounded footprint, but the target is registered as enumerable")
			}
			return c
		}
		names[i] = c.Automaton
	}
	t.Fatalf("no static contract inferred for %q; have %v", name, names)
	return analysis.Contract{}
}

// footprint reads a contract as one saturation bound: its largest
// threshold and the lcm of its moduli.
func footprint(c analysis.Contract) (thresh, mod int) {
	mod = 1
	for _, th := range c.Thresh {
		thresh = max(thresh, th)
	}
	for _, m := range c.Mods {
		mod = lcm(mod, m)
	}
	return thresh, mod
}

// footprintSound reports whether (thresh, mod) is a sound saturation
// bound for tgt: any two multisets of total at most tgt.MaxTotal whose
// counts agree state by state below thresh, and modulo mod at or above
// it, transition identically for every own-state.
func footprintSound(tgt mc.WitnessTarget, thresh, mod int) bool {
	if thresh < 0 || mod < 1 {
		return false
	}
	seen := make(map[string][]int)
	counts := make([]int, tgt.NumStates)
	proj := make([]int, tgt.NumStates)
	var walk func(i, left int) bool
	walk = func(i, left int) bool {
		if i == len(counts) {
			for q, c := range counts {
				proj[q] = c
				if c >= thresh {
					proj[q] = thresh + (c-thresh)%mod
				}
			}
			key := fmt.Sprint(proj)
			out := tgt.EvalAll(counts)
			prev, ok := seen[key]
			if !ok {
				seen[key] = out
				return true
			}
			return slices.Equal(prev, out)
		}
		for c := 0; c <= left; c++ {
			counts[i] = c
			if !walk(i+1, left-c) {
				return false
			}
		}
		counts[i] = 0
		return true
	}
	return walk(0, tgt.MaxTotal)
}

func lcm(a, b int) int {
	g, x := a, b
	for x != 0 {
		g, x = x, g%x
	}
	return a / g * b
}

// TestDeriveWitnessRejectsUnboundedCounter checks the sweep's honesty:
// a transition that reports the exact neighbourhood total has no
// saturating-periodic form within the bound, and DeriveWitness must say
// so rather than return a vacuous boundary witness.
func TestDeriveWitnessRejectsUnboundedCounter(t *testing.T) {
	const maxTotal = 3
	tgt := mc.WitnessTarget{
		Name:      "synthetic.totalCounter",
		NumStates: maxTotal + 1,
		MaxTotal:  maxTotal,
		MaxMod:    3,
		EvalAll: func(counts []int) []int {
			total := 0
			for _, c := range counts {
				total += c
			}
			out := make([]int, maxTotal+1)
			for i := range out {
				out[i] = total
			}
			return out
		},
	}
	if w, err := mc.DeriveWitness(tgt); err == nil {
		t.Fatalf("DeriveWitness = %v, want error for an exact-count transition", w)
	} else if !strings.Contains(err.Error(), "no (threshold, period) witness") {
		t.Fatalf("error = %v, want the no-witness message", err)
	}
}
