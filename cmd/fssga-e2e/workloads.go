package main

import (
	"fmt"
	"math/rand"

	"repro/internal/algo/bfs"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/algo/shortestpath"
	"repro/internal/fssga"
	"repro/internal/graph"
)

// sizes are the topology parameters of the four workloads; -quick
// swaps in toy sizes that run in well under a second.
type sizes struct {
	grid        int // election: grid side
	torus       int // bfs: torus side
	deltaEvery  int // bfs: rounds between delta checkpoints
	censusBlock int // census: power-law block size
	censusCopy  int // census: block copies
	spBlock     int // shortest paths: power-law block size
	spCopy      int // shortest paths: block copies
}

// The census topology is fixed: two 32768-node blocks from graph seed
// censusGraph. Its largest hub (degree 625) lies between the 448 and 896
// distinct states at which the engine's reused map-view scratch doubles
// its capacity. Four 16384-node blocks straddle the first step: the
// largest degree is above it on about a third of the seeds, and those
// solves cost about 1.6 times as much (see README.md). Seeded two-block
// graphs put the largest hub anywhere from 423 to 848 (seeds 1 to 40),
// and their solves differed by up to 2.3 times. -seed draws each node's
// initial sketches.
const censusGraph = 4

var (
	fullSizes  = sizes{grid: 32, torus: 1024, deltaEvery: 256, censusBlock: 32768, censusCopy: 2, spBlock: 16384, spCopy: 64}
	quickSizes = sizes{grid: 8, torus: 32, deltaEvery: 8, censusBlock: 1024, censusCopy: 1, spBlock: 1024, spCopy: 1}
)

// Fixed workload parameters from the paper's algorithms.
const (
	stableRounds = 8   // election: one leader and one remainer for this many rounds in a row
	plawEdges    = 4   // power-law edges per new node
	spTargets    = 4   // shortest paths: seeded target count
	spCap        = 127 // shortest paths: label cap; 2·(cap+1) = 256 dense states
)

// workload is the non-generic face of a job.
type workload interface {
	describe() spec
	solve(r *recorder, seed int64, w int, detail bool) result
}

func (j *job[S]) describe() spec { return j.spec }

func workloads(sz sizes) []workload {
	return []workload{electionGrid(sz), bfsTorus(sz), censusPLaw(sz), shortestPathPLaw(sz)}
}

// mutableGraph builds a topology through the mutable Graph and takes its
// first CSR snapshot, timing the two apart.
func mutableGraph(r *recorder, build func() *graph.Graph) *graph.Graph {
	t := r.now()
	g := build()
	r.call("graph.generate", t)
	t = r.now()
	g.CSR()
	r.call("graph.snapshot", t)
	return g
}

func electionGrid(sz sizes) *job[election.State] {
	return &job[election.State]{
		spec: spec{
			name:     "election-grid",
			why:      "randomized, so every node steps every round: dense views, full commits and a pool wake and barrier per round; frontier, agg and checkpoint are bypassed",
			parallel: true,
			nominal:  4.5,
		},
		maxRounds: 200 * sz.grid * sz.grid,
		setup: func(r *recorder, seed int64) (*instance[election.State], error) {
			g := mutableGraph(r, func() *graph.Graph { return graph.Grid(sz.grid, sz.grid) })
			t := r.now()
			tr := election.New(g, seed)
			r.call("fssga.new", t)
			stable := 0
			return &instance[election.State]{
				net: tr.Net,
				round: func(r *recorder, w int) bool {
					t := r.now()
					tr.Net.SyncRoundParallel(w)
					r.roundCall("fssga.round", t)
					t = r.now()
					one := len(tr.Leaders()) == 1 && tr.Remaining() == 1
					r.roundCall("algo.stop_check", t)
					if !one {
						stable = 0
						return false
					}
					stable++
					return stable >= stableRounds
				},
				oracle: func() func([]election.State) error { return checkElection },
			}, nil
		},
		enc: func(b []byte, s election.State) []byte {
			return append(b, bit(s.Started), bit(s.Remain), s.Phase, s.Label, byte(s.NP), bit(s.Leader),
				byte(s.Dist), s.RootLabel, bit(s.Complete), byte(s.CEpoch), byte(s.CColour), byte(s.MSt), byte(s.MEl))
		},
	}
}

// checkElection requires exactly one leader and one remaining candidate.
func checkElection(final []election.State) error {
	leaders, remain := 0, 0
	for _, s := range final {
		if s.Leader {
			leaders++
		}
		if !s.Started || s.Remain {
			remain++
		}
	}
	if leaders != 1 || remain != 1 {
		return fmt.Errorf("election: %d leaders and %d remaining, want 1 and 1", leaders, remain)
	}
	return nil
}

func bfsTorus(sz sizes) *job[bfs.State] {
	return &job[bfs.State]{
		spec: spec{
			name:    "bfs-torus",
			why:     "a sparse wavefront over 10^6 nodes: frontier bookkeeping and sparse commits beside delta checkpoint writes and a chain-resolving restore",
			nominal: 3.5,
		},
		maxRounds:  4 * sz.torus,
		deltaEvery: sz.deltaEvery,
		setup: func(r *recorder, seed int64) (*instance[bfs.State], error) {
			g := mutableGraph(r, func() *graph.Graph { return graph.Torus(sz.torus, sz.torus) })
			// The target is the originator's antipode, so every seed runs
			// a translate of the same search: the same rounds and the same
			// work, on different node IDs.
			n := sz.torus
			orig := rand.New(rand.NewSource(seed)).Intn(n * n)
			target := ((orig/n+n/2)%n)*n + (orig%n+n/2)%n
			t := r.now()
			net, err := bfs.NewNetwork(g, orig, []int{target}, seed)
			r.call("fssga.new", t)
			if err != nil {
				return nil, err
			}
			return &instance[bfs.State]{
				net:   net,
				round: frontierRound(net),
				oracle: func() func([]bfs.State) error {
					return func(final []bfs.State) error { return checkBFS(g, orig, final) }
				},
			}, nil
		},
		enc: func(b []byte, s bfs.State) []byte {
			return append(b, bit(s.Originator), bit(s.Target), byte(s.Label), byte(s.Status))
		},
	}
}

// checkBFS requires the originator to report Found and every label to be
// the node's BFS distance mod 3.
func checkBFS(g *graph.Graph, orig int, final []bfs.State) error {
	if final[orig].Status != bfs.Found {
		return fmt.Errorf("bfs: originator %d ended %v, want Found", orig, final[orig].Status)
	}
	for v, d := range g.BFSDistances(orig) {
		if int(final[v].Label) != d%3 {
			return fmt.Errorf("bfs: node %d labelled %d, want %d (distance %d)", v, final[v].Label, d%3, d)
		}
	}
	return nil
}

func censusPLaw(sz sizes) *job[census.State] {
	return &job[census.State]{
		spec: spec{
			name:    "census-plaw",
			why:     "the only workload on map views, with a closure-based Step: almost every node changes in each of its few rounds on a power-law graph",
			nominal: 2.8,
		},
		maxRounds: 1000,
		setup: func(r *recorder, seed int64) (*instance[census.State], error) {
			g := mutableGraph(r, func() *graph.Graph { return graph.PLaw(sz.censusBlock, sz.censusCopy, plawEdges, censusGraph) })
			t := r.now()
			net, err := census.NewNetwork(g, census.Config{Bits: 16, Sketches: 8, Seed: seed})
			r.call("fssga.new", t)
			if err != nil {
				return nil, err
			}
			return &instance[census.State]{
				net:   net,
				round: frontierRound(net),
				oracle: func() func([]census.State) error {
					var all census.State
					for _, s := range net.States() {
						for k := range all {
							all[k] |= s[k]
						}
					}
					return func(final []census.State) error { return checkCensus(all, final) }
				},
			}, nil
		},
		enc: func(b []byte, s census.State) []byte {
			for _, x := range s {
				b = append(b, byte(x), byte(x>>8))
			}
			return b
		},
	}
}

// checkCensus requires every node to hold the OR of all initial states:
// the graph is connected, so the diffusion reaches everyone.
func checkCensus(all census.State, final []census.State) error {
	for v, s := range final {
		if s != all {
			return fmt.Errorf("census: node %d holds %v, want the OR of all initial states %v", v, s, all)
		}
	}
	return nil
}

func shortestPathPLaw(sz sizes) *job[shortestpath.State] {
	return &job[shortestpath.State]{
		spec: spec{
			name:     "shortestpath-plaw",
			why:      "the only workload on agg hub trees and the shard-parallel frontier: 10^6 nodes on a streamed CSR, with a 3 MB checkpoint",
			parallel: true,
			nominal:  3.5,
		},
		maxRounds: 4 * spCap,
		setup: func(r *recorder, seed int64) (*instance[shortestpath.State], error) {
			t := r.now()
			c := graph.PLawCSR(sz.spBlock, sz.spCopy, plawEdges, seed)
			r.call("graph.generate", t)
			// Target k sits in block copy k·spCopy/spTargets, evenly
			// spaced around the ring of hubs, at a seeded position in its
			// block. The farthest nodes are then about the same distance
			// from a target on every seed, and so is the round count.
			rng := rand.New(rand.NewSource(seed))
			var targets []int
			inT := make(map[int]bool, spTargets)
			for len(targets) < spTargets {
				block := len(targets) * sz.spCopy / spTargets
				if v := block*sz.spBlock + rng.Intn(sz.spBlock); !inT[v] {
					inT[v] = true
					targets = append(targets, v)
				}
			}
			t = r.now()
			net := fssga.NewFromCSR(c, shortestpath.Auto(spCap), func(v int) shortestpath.State {
				if inT[v] {
					return shortestpath.State{InT: true}
				}
				return shortestpath.State{Label: spCap}
			}, seed)
			r.call("fssga.new", t)
			return &instance[shortestpath.State]{
				net:   net,
				round: frontierRound(net),
				oracle: func() func([]shortestpath.State) error {
					return func(final []shortestpath.State) error { return checkShortestPath(c, targets, final) }
				},
			}, nil
		},
		enc: func(b []byte, s shortestpath.State) []byte {
			return append(b, bit(s.InT), byte(s.Label))
		},
	}
}

// checkShortestPath requires every label to be the capped distance to
// the nearest target, by a multi-source BFS over the CSR.
func checkShortestPath(c *graph.CSR, targets []int, final []shortestpath.State) error {
	dist := make([]int, c.Cap())
	for v := range dist {
		dist[v] = -1
	}
	queue := make([]int32, 0, c.Cap())
	for _, t := range targets {
		dist[t] = 0
		queue = append(queue, int32(t))
	}
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, u := range c.Neighbors(int(v)) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	for v, d := range dist {
		if d < 0 || d > spCap {
			d = spCap
		}
		if final[v].Label != d || final[v].InT != (dist[v] == 0) {
			return fmt.Errorf("shortestpath: node %d holds %+v, want label %d", v, final[v], d)
		}
	}
	return nil
}

// frontierRound is one frontier round at w workers; the solve stops at
// the first round that changes nothing, which commits nothing and is
// recorded as the final probe.
func frontierRound[S comparable](net *fssga.Network[S]) func(r *recorder, w int) bool {
	return func(r *recorder, w int) bool {
		t := r.now()
		var changed bool
		if w > 1 {
			changed = net.SyncRoundParallelFrontier(w)
		} else {
			changed = net.SyncRoundFrontier()
		}
		if changed {
			r.roundCall("fssga.round", t)
		} else {
			r.roundCall("fssga.probe", t)
		}
		return !changed
	}
}

func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}
