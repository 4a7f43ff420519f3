package mc

// witness.go derives dynamic Theorem 3.7 saturation witnesses: for a
// concrete automaton, the smallest (threshold t, period m) such that
// the transition result is unchanged when any per-state neighbour
// count c is replaced by its saturating-periodic representative
// (c itself below t; t + ((c-t) mod m) at or above), over every
// multiset of bounded total. This is the paper's normal form read off
// the *running* Step by exhaustive enumeration — the dynamic
// counterpart of the capinfer analyzer's static footprint, and the
// cross-check in witness_test.go makes the two meet in the middle:
// every statically declared cap must be at least the dynamically
// minimal one.
//
// Registered targets are the order-invariant automatons with
// enumerable state spaces. The automatons carrying //fssga:nondet
// fold suppressions (randomwalk, election, milgram, iwa, the
// semilattice wrapper) are deliberately absent: their folds are
// order-tolerant only under global protocol invariants (at most one
// walker/hand/agent in the whole network), and a per-node multiset
// sweep would feed them neighbourhoods those invariants exclude.

import (
	"fmt"
	"math/rand"

	"repro/internal/algo/bfs"
	"repro/internal/algo/census"
	"repro/internal/algo/shortestpath"
	"repro/internal/algo/twocolor"
	"repro/internal/fssga"
	"repro/internal/sm"
)

// A WitnessTarget adapts one automaton to dense integer state indices
// so the enumerator can sweep all small neighbourhood multisets.
type WitnessTarget struct {
	// Name is the transition function's fully qualified name, matching
	// the capinfer Contract.Automaton key.
	Name string
	// NumStates is the dense state-space size; multisets are count
	// vectors of that length.
	NumStates int
	// MaxTotal bounds the multiset totals swept; MaxMod bounds the
	// periods tried.
	MaxTotal, MaxMod int
	// EvalAll runs the transition on the multiset described by counts
	// (counts[q] = multiplicity of state q) for every own-state,
	// returning the resulting state index per own-state.
	EvalAll func(counts []int) []int
}

// A Witness is a dynamically derived saturation bound: counts are
// observed exactly below Thresh and modulo Mod at or above it.
type Witness struct {
	Thresh int
	Mod    int
}

func (w Witness) String() string { return fmt.Sprintf("(t=%d, m=%d)", w.Thresh, w.Mod) }

// DeriveWitness finds the minimal witness for tgt, preferring small
// thresholds and, at equal threshold, small periods. The bound t+m <=
// MaxTotal keeps the sweep honest: a candidate only counts when the
// enumerated range contains two distinct counts it identifies.
func DeriveWitness(tgt WitnessTarget) (Witness, error) {
	mus := enumCounts(tgt.NumStates, tgt.MaxTotal)
	table := make([][]int, len(mus))
	for i, mu := range mus {
		table[i] = tgt.EvalAll(mu)
	}
	for t := 0; t < tgt.MaxTotal; t++ {
		for m := 1; m <= tgt.MaxMod && t+m <= tgt.MaxTotal; m++ {
			if witnessInvariant(mus, table, t, m) {
				return Witness{Thresh: t, Mod: m}, nil
			}
		}
	}
	return Witness{}, fmt.Errorf("mc: %s has no (threshold, period) witness within multiset total %d — not a Theorem 3.7 finite footprint at this bound", tgt.Name, tgt.MaxTotal)
}

// enumCounts lists every count vector of length k with total <= max.
func enumCounts(k, max int) [][]int {
	var out [][]int
	cur := make([]int, k)
	var rec func(i, rem int)
	rec = func(i, rem int) {
		if i == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for c := 0; c <= rem; c++ {
			cur[i] = c
			rec(i+1, rem-c)
		}
		cur[i] = 0
	}
	rec(0, max)
	return out
}

// witnessInvariant checks that multisets with equal saturating-
// periodic signatures transition identically for every own-state.
func witnessInvariant(mus [][]int, table [][]int, t, m int) bool {
	rep := make(map[string]int, len(mus))
	sig := make([]byte, 0, 64)
	for i, mu := range mus {
		sig = sig[:0]
		for _, c := range mu {
			if c >= t {
				c = t + (c-t)%m
			}
			sig = append(sig, byte(c))
		}
		j, ok := rep[string(sig)]
		if !ok {
			rep[string(sig)] = i
			continue
		}
		for self, r := range table[i] {
			if table[j][self] != r {
				return false
			}
		}
	}
	return true
}

// witnessTarget builds a WitnessTarget for a typed automaton from a
// dense index decoding. The state set must be transition-closed; an
// out-of-set result is reported through panic during the sweep (all
// registered targets are total over their declared spaces).
func witnessTarget[S comparable](name string, auto fssga.Automaton[S], numStates, maxTotal, maxMod int, decode func(int) S) WitnessTarget {
	states := make([]S, numStates)
	index := make(map[S]int, numStates)
	for i := range states {
		states[i] = decode(i)
		index[states[i]] = i
	}
	rnd := rand.New(rand.NewSource(1))
	return WitnessTarget{
		Name:      name,
		NumStates: numStates,
		MaxTotal:  maxTotal,
		MaxMod:    maxMod,
		EvalAll: func(counts []int) []int {
			byState := make(map[S]int, len(counts))
			for i, c := range counts {
				if c > 0 {
					byState[states[i]] = c
				}
			}
			view := fssga.NewViewFromCounts(byState)
			out := make([]int, numStates)
			for i, s := range states {
				r, ok := index[auto.Step(s, view, rnd)]
				if !ok {
					panic(fmt.Sprintf("mc: %s left its declared state space from state %d", name, i))
				}
				out[i] = r
			}
			return out
		},
	}
}

// parityAutomaton is a minimal CountMod automaton kept as a live
// witness target: a node flips its bit exactly when an odd number of
// neighbours carry a set bit, so its footprint is purely periodic
// (t=0, m=2) with no finite threshold form.
type parityAutomaton struct{}

// Step implements fssga.Automaton.
func (parityAutomaton) Step(self int, view *fssga.View[int], rnd *rand.Rand) int {
	if view.CountMod(2, func(s int) bool { return s == 1 }) == 1 {
		return self ^ 1
	}
	return self
}

// WitnessTargets registers every automaton the dynamic enumeration
// covers, keyed to its capinfer contract name.
func WitnessTargets() []WitnessTarget {
	const spCap = 3 // shortestpath label cap: states are 2*(cap+1)

	formal, err := fssga.NewDeterministicFormal(4, formalTwocolorFuncs())
	if err != nil {
		panic(err) // static program table; cannot fail
	}

	return []WitnessTarget{
		witnessTarget("(repro/internal/algo/twocolor.automaton).Step",
			twocolor.Auto(), 4, 5, 3,
			func(i int) twocolor.State { return twocolor.State(i) }),

		witnessTarget("(repro/internal/algo/shortestpath.automaton).Step",
			shortestpath.Auto(spCap), 2*(spCap+1), 5, 3,
			func(i int) shortestpath.State {
				return shortestpath.State{InT: i > spCap, Label: i % (spCap + 1)}
			}),

		witnessTarget("(repro/internal/algo/census.automaton).Step",
			census.Auto(census.Config{Bits: 2, Sketches: 1}), 1<<2, 5, 3,
			func(i int) census.State {
				var s census.State
				s[0] = uint16(i)
				return s
			}),

		witnessTarget("(repro/internal/algo/bfs.automaton).Step",
			bfs.Auto(), 48, 3, 2,
			func(i int) bfs.State {
				s := bfs.State{Status: bfs.Status(i % 3)}
				i /= 3
				s.Label = int8(i%4) - 1
				i /= 4
				s.Target = i%2 == 1
				s.Originator = i/2 == 1
				return s
			}),

		witnessTarget("(*repro/internal/fssga.FormalAutomaton).Step",
			formal, 4, 5, 3,
			func(i int) int { return i }),

		witnessTarget("(repro/internal/mc.parityAutomaton).Step",
			parityAutomaton{}, 2, 5, 3,
			func(i int) int { return i }),
	}
}

// formalTwocolorFuncs adapts twocolor.FormalPrograms to the formal
// automaton constructor.
func formalTwocolorFuncs() []sm.Func {
	progs := twocolor.FormalPrograms()
	fs := make([]sm.Func, len(progs))
	for i, p := range progs {
		fs[i] = p
	}
	return fs
}
