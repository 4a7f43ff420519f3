package fssga

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
	"repro/internal/testutil"
)

func TestViewBasics(t *testing.T) {
	v := NewView([]int{1, 2, 2, 3, 2})
	if v.Empty() {
		t.Fatal("nonempty view reported Empty")
	}
	if v.DegreeCapped(10) != 5 || v.DegreeCapped(3) != 3 {
		t.Fatal("DegreeCapped wrong")
	}
	if v.CountState(2, 10) != 3 || v.CountState(2, 2) != 2 || v.CountState(9, 5) != 0 {
		t.Fatal("CountState wrong")
	}
}

func TestViewEmpty(t *testing.T) {
	v := NewView([]int{})
	if !v.Empty() {
		t.Fatal("empty view not Empty")
	}
	if v.DegreeCapped(3) != 0 {
		t.Fatal("empty degree wrong")
	}
	if !v.All(func(int) bool { return false }) {
		t.Fatal("All should be vacuously true on empty view")
	}
	if v.Any(func(int) bool { return true }) {
		t.Fatal("Any should be false on empty view")
	}
}

func TestViewCountPred(t *testing.T) {
	v := NewView([]int{1, 2, 3, 4, 5, 6})
	even := func(s int) bool { return s%2 == 0 }
	if v.Count(10, even) != 3 {
		t.Fatal("Count wrong")
	}
	if v.Count(2, even) != 2 {
		t.Fatal("Count cap wrong")
	}
	if v.CountMod(2, even) != 1 {
		t.Fatal("CountMod wrong")
	}
	if v.CountMod(3, func(int) bool { return true }) != 0 {
		t.Fatal("CountMod total wrong")
	}
}

func TestViewAnyNoneAllExactly(t *testing.T) {
	v := NewView([]string{"a", "b", "b"})
	isB := func(s string) bool { return s == "b" }
	if !v.Any(isB) || !v.AnyState("a") || v.AnyState("z") {
		t.Fatal("Any/AnyState wrong")
	}
	if !v.None(func(s string) bool { return s == "z" }) {
		t.Fatal("None wrong")
	}
	if v.All(isB) {
		t.Fatal("All wrong: 'a' present")
	}
	if !v.All(func(s string) bool { return s == "a" || s == "b" }) {
		t.Fatal("All wrong: everything matches")
	}
	if !v.Exactly(2, isB) || v.Exactly(1, isB) || v.Exactly(3, isB) {
		t.Fatal("Exactly wrong")
	}
	if !v.Exactly(0, func(s string) bool { return s == "z" }) {
		t.Fatal("Exactly(0) wrong")
	}
}

func TestViewPanics(t *testing.T) {
	v := NewView([]int{1})
	cases := []func(){
		func() { v.DegreeCapped(0) },
		func() { v.CountState(1, 0) },
		func() { v.Count(0, func(int) bool { return true }) },
		func() { v.CountMod(0, func(int) bool { return true }) },
		func() { NewViewFromCounts(map[int]int{1: -1}) },
		func() { NewViewFromCounts(map[int]int{1: math.MaxInt32 + 1}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestViewForEach(t *testing.T) {
	v := NewView([]int{7, 7, 9})
	got := map[int]int{}
	v.ForEach(func(s, c int) { got[s] = c })
	if len(got) != 2 || got[7] != 2 || got[9] != 1 {
		t.Fatalf("ForEach = %v", got)
	}
}

func TestRemap(t *testing.T) {
	v := NewView([]int{1, 2, 3, 4})
	// Map to parity: two odd, two even.
	r := Remap(v, func(s int) string {
		if s%2 == 0 {
			return "even"
		}
		return "odd"
	})
	if r.CountState("even", 10) != 2 || r.CountState("odd", 10) != 2 {
		t.Fatal("Remap counts wrong")
	}
	if r.DegreeCapped(10) != 4 {
		t.Fatal("Remap total wrong")
	}
}

func TestNewViewFromCounts(t *testing.T) {
	v := NewViewFromCounts(map[string]int{"x": 3})
	if v.DegreeCapped(5) != 3 || !v.AnyState("x") {
		t.Fatal("NewViewFromCounts wrong")
	}
}

// TestNewViewFromCountsDropsZeros: a state that occurs 0 times is not a
// neighbour state, so no observation may see it.
func TestNewViewFromCountsDropsZeros(t *testing.T) {
	v := NewViewFromCounts(map[int]int{1: 2, 7: 0})
	var seen []int
	v.ForEach(func(s, _ int) { seen = append(seen, s) })
	if len(seen) != 1 || seen[0] != 1 {
		t.Fatalf("ForEach visited %v, want only state 1", seen)
	}
	if c := v.CountState(7, 1); c != 0 {
		t.Fatalf("CountState(7, 1) = %d, want 0", c)
	}
	if c := v.Count(10, func(int) bool { return true }); c != 2 {
		t.Fatalf("Count over every state = %d, want 2", c)
	}
}

// Property: every View observation agrees with a reference computation on
// the raw multiset.
func TestViewMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40)
		states := make([]int, n)
		for i := range states {
			states[i] = rng.Intn(5)
		}
		v := NewView(states)
		pred := func(s int) bool { return s%2 == 0 }
		refCount := 0
		refState := 0
		target := rng.Intn(5)
		for _, s := range states {
			if pred(s) {
				refCount++
			}
			if s == target {
				refState++
			}
		}
		cap := 1 + rng.Intn(6)
		mod := 1 + rng.Intn(5)
		if v.Count(cap, pred) != min(refCount, cap) {
			return false
		}
		if v.CountState(target, cap) != min(refState, cap) {
			return false
		}
		if v.CountMod(mod, pred) != refCount%mod {
			return false
		}
		if v.DegreeCapped(cap) != min(n, cap) {
			return false
		}
		if v.Any(pred) != (refCount > 0) || v.None(pred) != (refCount == 0) {
			return false
		}
		if v.All(pred) != (refCount == n) {
			return false
		}
		if v.Exactly(2, pred) != (refCount == 2) {
			return false
		}
		return v.Empty() == (n == 0)
	}
	if err := quick.Check(prop, testutil.QuickN(t, 121, 200)); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// hubCycle returns an n-node cycle plus, when deg > 0, one extra node
// joined to deg cycle nodes spread evenly around it.
func hubCycle(n, deg int) *graph.Graph {
	g := graph.New(n + 1)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
	}
	for j := 0; j < deg; j++ {
		g.AddEdge(n, j*(n/deg))
	}
	return g
}

// mapMax is max-diffusion on map views (StepFunc hides any dense index).
var mapMax = StepFunc[int](func(self int, view *View[int], _ *rand.Rand) int {
	view.ForEach(func(s, _ int) {
		if s > self {
			self = s
		}
	})
	return self
})

// TestMapViewCostIndependentOfLargestView: a map-view round costs what
// its nodes see. One node whose view once held 1,000 distinct states
// must not make every later view on the same scratch pay for them.
func TestMapViewCostIndependentOfLargestView(t *testing.T) {
	if raceEnabled {
		t.Skip("timings are perturbed under -race")
	}
	const n, rounds = 16384, 5
	nets := []*Network[int]{
		New[int](hubCycle(n, 0), mapMax, func(v int) int { return v }, 1),
		New[int](hubCycle(n, 1000), mapMax, func(v int) int { return v }, 1),
	}
	best := []time.Duration{time.Hour, time.Hour}
	for _, net := range nets {
		net.SyncRound() // the hub's view of 1,000 distinct states
	}
	for trial := 0; trial < 3; trial++ {
		for i, net := range nets {
			start := time.Now()
			for r := 0; r < rounds; r++ {
				net.SyncRound()
			}
			if d := time.Since(start); d < best[i] {
				best[i] = d
			}
		}
	}
	if ratio := float64(best[1]) / float64(best[0]); ratio >= 3 {
		t.Fatalf("%d rounds cost %v with the hub and %v without (%.1fx), want < 3x", rounds, best[1], best[0], ratio)
	}
}
