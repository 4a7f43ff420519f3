package fssga

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/testutil"

	"repro/internal/graph"
)

// minPlusAutomaton is a shortest-path-style diffusion: a non-pinned node's
// label becomes 1 + min over neighbours, capped. Unlike maxAutomaton its
// labels can *rise* after a fault, exercising frontier invalidation.
type minPlusAutomaton struct{ cap int }

func (a minPlusAutomaton) Step(self int, view *View[int], rnd *rand.Rand) int {
	if self == 0 {
		return 0 // pinned source
	}
	best := a.cap
	view.ForEach(func(s, _ int) {
		if s < best {
			best = s
		}
	})
	if best+1 > a.cap {
		return a.cap
	}
	return best + 1
}

// runGuardedFull is the pre-frontier reference loop: full rounds guarded
// by an explicit quiescence probe.
func runGuardedFull[S comparable](net *Network[S], maxRounds int) (int, bool) {
	for r := 0; r < maxRounds; r++ {
		if net.Quiescent() {
			return r, true
		}
		net.SyncRound()
	}
	return maxRounds, net.Quiescent()
}

// TestFrontierMatchesFullRounds: frontier-driven quiescence runs must
// reproduce the full-round reference exactly — states, round counts and
// OnRound invocations — on random graphs.
func TestFrontierMatchesFullRounds(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnectedGNP(40, 0.08, rng)
		init := func(v int) int { return v }
		ref := New[int](g.Clone(), maxAutomaton{}, init, seed)
		fr := New[int](g.Clone(), maxAutomaton{}, init, seed)
		var refRounds, frRounds []int
		ref.OnRound = func(r int) { refRounds = append(refRounds, r) }
		fr.OnRound = func(r int) { frRounds = append(frRounds, r) }
		r1, f1 := runGuardedFull(ref, 200)
		r2, f2 := fr.RunSyncUntilQuiescent(200)
		if r1 != r2 || f1 != f2 || len(refRounds) != len(frRounds) {
			return false
		}
		for v := 0; v < 40; v++ {
			if ref.State(v) != fr.State(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickN(t, 115, 20)); err != nil {
		t.Fatal(err)
	}
}

// TestFrontierMatchesFullRoundsWithFaults injects identical mid-run faults
// into the reference and the frontier run; the frontier must notice the
// topology change and re-converge to the same states.
func TestFrontierMatchesFullRoundsWithFaults(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnectedGNP(36, 0.1, rng)
		init := func(v int) int {
			if v == 0 {
				return 0
			}
			return 36 // cap
		}
		auto := minPlusAutomaton{cap: 36}
		ref := New[int](g.Clone(), auto, init, seed)
		fr := New[int](g.Clone(), auto, init, seed)

		// Converge, fault identically (edges around a random victim), and
		// converge again. Labels can rise after the cut.
		runGuardedFull(ref, 400)
		fr.RunSyncUntilQuiescent(400)
		victim := 1 + rng.Intn(35)
		for _, u := range ref.G.SortedNeighbors(victim, nil) {
			ref.G.RemoveEdge(victim, u)
			fr.G.RemoveEdge(victim, u)
		}
		r1, f1 := runGuardedFull(ref, 400)
		r2, f2 := fr.RunSyncUntilQuiescent(400)
		if r1 != r2 || f1 != f2 {
			return false
		}
		for v := 0; v < 36; v++ {
			if ref.State(v) != fr.State(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickN(t, 116, 15)); err != nil {
		t.Fatal(err)
	}
}

func TestFrontierQuiescentRoundNotCommitted(t *testing.T) {
	g := graph.Path(6)
	net := newMaxNet(g, 1)
	rounds, finished := net.RunSyncUntilQuiescent(100)
	if !finished {
		t.Fatal("no quiescence")
	}
	fired := 0
	net.OnRound = func(int) { fired++ }
	for i := 0; i < 3; i++ {
		if net.SyncRoundFrontier() {
			t.Fatal("quiescent network reported a change")
		}
	}
	if net.Rounds != rounds || fired != 0 {
		t.Fatalf("quiescent frontier rounds committed: Rounds=%d (want %d), OnRound fired %d times",
			net.Rounds, rounds, fired)
	}
}

func TestFrontierInvalidatedBySetState(t *testing.T) {
	g := graph.Path(8)
	net := newMaxNet(g, 1)
	net.RunSyncUntilQuiescent(100)
	net.SetState(0, 99)
	if rounds, finished := net.RunSyncUntilQuiescent(100); !finished || rounds == 0 {
		t.Fatalf("SetState change not propagated: rounds=%d finished=%v", rounds, finished)
	}
	for v := 0; v < 8; v++ {
		if net.State(v) != 99 {
			t.Fatalf("state[%d] = %d, want 99", v, net.State(v))
		}
	}
}

// TestFrontierInvalidatedByFullRound: a full round marks nothing, so
// the marks of the frontier round before it are stale. The frontier
// round after it must discard them, step every node and mark afresh:
// the round after that steps exactly the closed neighbourhood of its
// changes, and mixing the round kinds loses no update.
func TestFrontierInvalidatedByFullRound(t *testing.T) {
	g := graph.Path(8)
	a := newMaxNet(g.Clone(), 1)
	b := newMaxNet(g.Clone(), 1)
	a.SyncRoundFrontier()
	a.SyncRoundFrontier()
	a.SyncRound()
	a.SyncRoundFrontier()
	want := closedNeighbourhood(a.topo(), changeList(a))
	a.SyncRoundFrontier()
	if !slices.Equal(a.work, want) {
		t.Fatalf("after a full round and a frontier round, the next frontier round stepped %v, want %v", a.work, want)
	}
	a.RunSyncUntilQuiescent(100)
	b.RunSyncUntilQuiescent(100)
	for v := 0; v < 8; v++ {
		if a.State(v) != b.State(v) {
			t.Fatalf("state[%d]: mixed=%d pure=%d", v, a.State(v), b.State(v))
		}
	}
}

// changeList flattens the network's last committed change list.
func changeList[S comparable](net *Network[S]) []int32 {
	var vs []int32
	for _, buf := range net.changes {
		for _, ch := range buf {
			vs = append(vs, ch.v)
		}
	}
	return vs
}

// marked returns the union of the workers' mark sets in ascending node
// order without draining them, and fails t if a summary bit disagrees
// with its word.
func marked[S comparable](t *testing.T, net *Network[S]) []int32 {
	t.Helper()
	var vs []int32
	for w, sc := range net.workers {
		m := sc.marks
		for i, word := range m.words {
			if (word != 0) != (m.summary[i>>6]&(1<<(i&63)) != 0) {
				t.Fatalf("worker %d: mark word %d is %#x and its summary bit disagrees", w, i, word)
			}
			for ; word != 0; word &= word - 1 {
				vs = append(vs, int32(i<<6|bits.TrailingZeros64(word)))
			}
		}
	}
	slices.Sort(vs)
	return slices.Compact(vs)
}

// closedNeighbourhood is the brute-force frontier of a change list on c:
// every listed node and each of its neighbours, sorted and deduplicated.
func closedNeighbourhood(c *graph.CSR, changed []int32) []int32 {
	var vs []int32
	for _, v := range changed {
		vs = append(vs, v)
		vs = append(vs, c.Neighbors(int(v))...)
	}
	slices.Sort(vs)
	return slices.Compact(vs)
}

// TestFrontierWorkSetIsClosedNeighbourhood pins the frontier contract on
// random graphs under an edge-fault schedule, at one and two workers.
// After every frontier round that drained its work set from valid marks,
// the work set is the last change list's closed neighbourhood in
// strictly increasing node order. Between rounds the committed change
// list ascends, and the marks are exactly its closed neighbourhood, so
// each drain also cleared the marks it read.
func TestFrontierWorkSetIsClosedNeighbourhood(t *testing.T) {
	testutil.NoLeak(t)
	const n, labelCap = 300, 24
	init := func(v int) int {
		if v == 0 {
			return 0
		}
		return labelCap
	}
	prop := func(seed int64) bool {
		g := graph.RandomConnectedGNP(n, 0.025, rand.New(rand.NewSource(seed)))
		for _, workers := range []int{1, 2} {
			net := New[int](g.Clone(), minPlusAutomaton{cap: labelCap}, init, seed)
			faults := rand.New(rand.NewSource(seed))
			derivedRounds := 0
			for r := 1; r <= 48; r++ {
				if r%6 == 0 {
					// Cut one edge at a random node: labels may rise
					// behind it, and the next round steps every node.
					u := faults.Intn(n)
					if nbrs := net.G.SortedNeighbors(u, nil); len(nbrs) > 0 {
						net.G.RemoveEdge(u, nbrs[faults.Intn(len(nbrs))])
					}
				}
				c := net.topo()
				derived := net.markedOn == c
				want := closedNeighbourhood(c, changeList(net))
				net.mustRound(workers, true)
				if derived {
					derivedRounds++
					if !slices.Equal(net.work, want) {
						t.Errorf("seed %d w=%d round %d: work set %v, want the closed neighbourhood %v",
							seed, workers, r, net.work, want)
						return false
					}
					for i := 1; i < len(net.work); i++ {
						if net.work[i-1] >= net.work[i] {
							t.Errorf("seed %d w=%d round %d: work set not strictly increasing at %d: %d, %d",
								seed, workers, r, i, net.work[i-1], net.work[i])
							return false
						}
					}
				}
				changed := changeList(net)
				if got, want := marked(t, net), closedNeighbourhood(c, changed); !slices.Equal(got, want) {
					t.Errorf("seed %d w=%d round %d: marks %v between rounds, want the closed neighbourhood %v",
						seed, workers, r, got, want)
					return false
				}
				for i := 1; i < len(changed); i++ {
					if changed[i-1] >= changed[i] {
						t.Errorf("seed %d w=%d round %d: change list not ascending at %d: %d, %d",
							seed, workers, r, i, changed[i-1], changed[i])
						return false
					}
				}
			}
			if derivedRounds == 0 {
				t.Errorf("seed %d w=%d: no round derived its work set from a change list", seed, workers)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickN(t, 126, 12)); err != nil {
		t.Fatal(err)
	}
}
