package fssga

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/graph"

	"repro/internal/testutil"
)

// TestDeterminismAcrossWorkerCountsWithFaults is the engine's central
// reproducibility property: with per-node random streams, serial rounds
// and sharded parallel rounds at any worker count produce bit-identical
// state vectors — including across mid-run faults (which invalidate the
// CSR snapshot), probabilistic automata, and both view representations
// (the subtests keep the names of the two view paths there were). The
// palette and the ids must be identical too, whatever the worker count:
// commit interns in change-list order. n is kept above shardAlign so
// the parallel modes genuinely run on the shard pool rather than the
// small-network serial fallback.
func TestDeterminismAcrossWorkerCountsWithFaults(t *testing.T) {
	testutil.NoLeak(t)
	const n = 192
	mod := func(m int) func(v int) int { return func(v int) int { return v % m } }
	autos := map[string]struct {
		auto Automaton[int]
		init func(v int) int
		det  bool // frontier rounds apply
	}{
		"probabilistic-map":   {coinAutomaton{}, mod(2), false},
		"probabilistic-dense": {denseCoin{}, mod(2), false},
		"deterministic-dense": {denseMax{8}, mod(8), true},
		// OR over one-hot states: every round commits states the
		// palette has not seen, in every chunk.
		"deterministic-census": {SemiLattice[int]{Join: func(a, b int) int { return a | b }},
			func(v int) int { return 1 << (v % 62) }, true},
	}
	for name, tc := range autos {
		auto, init := tc.auto, tc.init
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 42} {
				rng := rand.New(rand.NewSource(seed))
				g0 := graph.RandomConnectedGNP(n, 4.0/n, rng)

				// A pre-planned fault schedule, applied identically to every
				// replica: kill a node after round 3, cut an edge after round 6.
				victim := rng.Intn(n)
				edges := g0.Edges()
				cut := edges[rng.Intn(len(edges))]
				faults := func(g *graph.Graph, round int) {
					switch round {
					case 3:
						g.RemoveNode(victim)
					case 6:
						g.RemoveEdge(cut.U, cut.V)
					}
				}

				// run returns the final states and, per round, the kernel's
				// change list, the frontier its workers marked, the
				// palette and the ids, each checked against a brute-force
				// recomputation.
				run := func(mode string, frontier bool, round func(net *Network[int])) ([]int, []roundTrace) {
					net := New[int](g0.Clone(), auto, init, seed)
					var traces []roundTrace
					for r := 1; r <= 10; r++ {
						prev := append([]int(nil), net.States()...)
						round(net)
						traces = append(traces, checkRoundInvariants(t, fmt.Sprintf("seed %d %s round %d", seed, mode, r), net, prev, frontier))
						faults(net.G, r)
					}
					out := make([]int, n)
					copy(out, net.States())
					return out, traces
				}

				ref, refTraces := run("serial", false, func(net *Network[int]) { net.SyncRound() })
				check := func(mode string, got []int, gotTraces, wantTraces []roundTrace) {
					t.Helper()
					for v := range ref {
						if got[v] != ref[v] {
							t.Fatalf("seed %d %s: state[%d] = %d, serial = %d",
								seed, mode, v, got[v], ref[v])
						}
					}
					if wantTraces != nil && !reflect.DeepEqual(gotTraces, wantTraces) {
						t.Fatalf("seed %d %s: change lists, marks, palettes or ids differ from the one-worker run", seed, mode)
					}
				}
				for _, w := range []int{1, 2, 4, 8} {
					mode := "parallel w=" + strconv.Itoa(w)
					got, traces := run(mode, false, func(net *Network[int]) { net.SyncRoundParallel(w) })
					check(mode, got, traces, refTraces)
				}
				// Frontier rounds are restricted to deterministic automata;
				// there they must reproduce the full-round trajectory exactly,
				// faults and all, with the same change lists at every worker
				// count.
				if tc.det {
					got, frontTraces := run("serial frontier", true, func(net *Network[int]) { net.SyncRoundFrontier() })
					check("serial frontier", got, frontTraces, nil)
					for _, w := range []int{1, 2, 4, 5, 8} {
						mode := "frontier w=" + strconv.Itoa(w)
						got, traces := run(mode, true, func(net *Network[int]) { net.SyncRoundParallelFrontier(w) })
						check(mode, got, traces, frontTraces)
					}
				}
			}
		})
	}
}

// roundTrace is what one round leaves for the next: its change list,
// flattened in chunk order, the union of its workers' marks, and the
// palette and ids it committed.
type roundTrace struct {
	changes []change[int]
	work    []int32
	pal     []entry[int]
	ids     []int32
}

// checkRoundInvariants asserts the round kernel's invariants after one
// round that started from the states prev: the change list is exactly
// the snapshot diff, the palette numbers the states (checkPalette), and
// the workers' marks are valid on the round's snapshot and exactly the
// set of nodes that changed or have a changed neighbour after a
// frontier round, and absent and invalid after a full round.
func checkRoundInvariants(t *testing.T, what string, net *Network[int], prev []int, frontier bool) roundTrace {
	t.Helper()
	c := net.topo()
	if frontier && net.markedOn != c {
		t.Fatalf("%s: frontier marks not committed on the round's snapshot", what)
	}
	if !frontier && net.markedOn != nil {
		t.Fatalf("%s: a full round left marks valid", what)
	}
	checkPalette(t, what, net)
	tr := roundTrace{
		pal: append([]entry[int](nil), net.pal.ent...),
		ids: append([]int32(nil), net.ids...),
	}
	for _, buf := range net.changes {
		tr.changes = append(tr.changes, buf...)
	}
	var diff, listed []int
	for v := range prev {
		if prev[v] != net.States()[v] {
			diff = append(diff, v)
		}
	}
	for _, ch := range tr.changes {
		if ch.s != net.States()[ch.v] {
			t.Fatalf("%s: change list gives node %d state %d, committed %d", what, ch.v, ch.s, net.States()[ch.v])
		}
		listed = append(listed, int(ch.v))
	}
	sort.Ints(listed)
	if !reflect.DeepEqual(listed, diff) {
		t.Fatalf("%s: change list %v, snapshot diff %v", what, listed, diff)
	}

	tr.work = marked(t, net)
	if !frontier {
		if len(tr.work) != 0 {
			t.Fatalf("%s: a full round marked %v", what, tr.work)
		}
		return tr
	}
	changed := make([]bool, len(prev))
	for _, v := range diff {
		changed[v] = true
	}
	var want, got []int
	for v := range prev {
		touched := changed[v]
		for _, u := range c.Neighbors(v) {
			touched = touched || changed[u]
		}
		if touched {
			want = append(want, v)
		}
	}
	for _, v := range tr.work {
		got = append(got, int(v))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: marked %v, want the changed nodes and their neighbours %v", what, got, want)
	}
	return tr
}

// TestDeterminismCSRBacked: networks built directly over a streaming CSR
// (no mutable graph at all) are bit-identical across worker counts and
// to their graph-backed twin, for a probabilistic automaton.
func TestDeterminismCSRBacked(t *testing.T) {
	testutil.NoLeak(t)
	const rows, cols = 16, 16
	init := func(v int) int { return v % 2 }
	run := func(workers int) []int {
		net := NewFromCSR[int](graph.TorusCSR(rows, cols), denseCoin{}, init, 11)
		for r := 0; r < 8; r++ {
			if workers == 0 {
				net.SyncRound()
			} else {
				net.SyncRoundParallel(workers)
			}
		}
		out := make([]int, rows*cols)
		copy(out, net.States())
		return out
	}
	ref := run(0)
	graphTwin := New[int](graph.Torus(rows, cols), denseCoin{}, init, 11)
	for r := 0; r < 8; r++ {
		graphTwin.SyncRound()
	}
	for v := range ref {
		if graphTwin.State(v) != ref[v] {
			t.Fatalf("graph-backed twin diverged at node %d", v)
		}
	}
	for _, w := range []int{2, 4, 8} {
		got := run(w)
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("workers %d: state[%d] = %d, serial = %d", w, v, got[v], ref[v])
			}
		}
	}
}
