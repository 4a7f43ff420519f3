package mc

import (
	"fmt"
	"math/rand"

	"repro/internal/algo/bfs"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/algo/shortestpath"
	"repro/internal/algo/twocolor"
	"repro/internal/chaos"
	"repro/internal/fssga"
	"repro/internal/graph"
	"repro/internal/trace"
)

// Pair is one algorithm/topology instance the interleaving engine
// explores. The generic Model is erased behind closures so pairs over
// different state types live in one registry.
type Pair struct {
	Name string
	Spec trace.GraphSpec
	Seed int64
	// Randomized marks pairs whose automaton consults the RNG; they are
	// explored against a derandomized coin oracle (coins are a fixed pure
	// function of the activating node's local context) with a state
	// budget, and replay only via the pure-step path.
	Randomized bool
	// Bounded marks pairs explored under a MaxStates budget rather than
	// exhaustively.
	Bounded bool

	run        func(por bool) Report
	replayPure func(picks []int) []uint64
	// replayNet replays picks through a real fssga.Network via the chaos
	// replay scheduler, returning per-activation digests. nil for
	// randomized pairs (the network's streams differ from the
	// derandomized oracle's).
	replayNet func(picks []int) ([]uint64, error)
}

// Explore runs the pair's exploration with sleep-set POR.
func (p Pair) Explore() Report { return p.run(true) }

// ExploreNoPOR runs the exploration with POR disabled (for
// cross-validation of the reduction).
func (p Pair) ExploreNoPOR() Report { return p.run(false) }

// ReplayPure replays an activation sequence by pure-step evaluation,
// returning the per-activation digest sequence.
func (p Pair) ReplayPure(picks []int) []uint64 { return p.replayPure(picks) }

// ReplayNetwork replays an activation sequence through fssga.Network
// driven by chaos.ReplayScheduler. Returns an error for randomized pairs.
func (p Pair) ReplayNetwork(picks []int) ([]uint64, error) {
	if p.replayNet == nil {
		return nil, fmt.Errorf("mc: pair %s is randomized; network replay unsupported", p.Name)
	}
	return p.replayNet(picks)
}

// mustBuild rebuilds a pair's sealed topology from its spec.
func mustBuild(spec trace.GraphSpec) *graph.Graph {
	g, err := graph.Build(spec.Gen, spec.N, spec.Seed)
	if err != nil {
		panic("mc: " + err.Error())
	}
	g.Seal()
	return g
}

// finish stamps the pair name and replayable digests onto a report's
// counterexample.
func finish(p *Pair, rep Report) Report {
	if rep.Counterexample != nil {
		rep.Counterexample.Pair = p.Name
		rep.Counterexample.Digests = p.replayPure(rep.Counterexample.Picks)
	}
	return rep
}

// makePair erases a Model (and optional network factory) into a Pair.
func makePair[S comparable](name string, spec trace.GraphSpec, seed int64, model func(g *graph.Graph) Model[S], newNet func(g *graph.Graph) (*fssga.Network[S], error)) Pair {
	p := Pair{Name: name, Spec: spec, Seed: seed}
	p.run = func(por bool) Report {
		g := mustBuild(spec)
		m := model(g)
		m.POR = por
		p2 := p
		return finish(&p2, Explore(m))
	}
	p.replayPure = func(picks []int) []uint64 {
		g := mustBuild(spec)
		return digestPath(model(g), picks)
	}
	if newNet != nil {
		p.replayNet = func(picks []int) ([]uint64, error) {
			g := mustBuild(spec)
			net, err := newNet(g)
			if err != nil {
				return nil, err
			}
			sched := &chaos.ReplayScheduler{Picks: picks}
			digests := make([]uint64, 0, len(picks))
			net.RunAsync(sched, seed, len(picks), func(net *fssga.Network[S]) bool {
				digests = append(digests, chaos.DigestStates(g, net.States()))
				return false
			})
			return digests, nil
		}
	}
	return p
}

// Pairs returns the interleaving-exploration registry. Every
// deterministic pair is explored exhaustively; the election pair runs
// derandomized under a state budget.
func Pairs() []Pair {
	return []Pair{
		twocolorPair("twocolor/path6", trace.GraphSpec{Gen: "path", N: 6}, true),
		twocolorPair("twocolor/cycle6", trace.GraphSpec{Gen: "cycle", N: 6}, true),
		twocolorPair("twocolor/cycle5", trace.GraphSpec{Gen: "cycle", N: 5}, false),
		censusPair(),
		shortestPathPair(),
		bfsPathPair(),
		bfsStarPair(),
		electionPair(),
	}
}

// LookupPair finds a pair by name.
func LookupPair(name string) (Pair, error) {
	for _, p := range Pairs() {
		if p.Name == name {
			return p, nil
		}
	}
	return Pair{}, fmt.Errorf("mc: unknown pair %q", name)
}

// twocolorPair explores 2-colouring from origin 0. On a bipartite graph
// the unique fixpoint colours each node by its distance parity from the
// origin; on an odd cycle it is all-FAILED (any all-coloured state has a
// monochromatic edge, and FAILED floods). Both are confluent.
func twocolorPair(name string, spec trace.GraphSpec, bipartite bool) Pair {
	const seed = 1
	model := func(g *graph.Graph) Model[twocolor.State] {
		init := make([]twocolor.State, g.Cap())
		init[0] = twocolor.Red
		dist := g.BFSDistances(0)
		return Model[twocolor.State]{
			G:    g,
			Auto: twocolor.Auto(),
			Init: init,
			Invariant: func(v int, old, next twocolor.State) string {
				switch {
				case old == next:
					return ""
				case old == twocolor.Blank && next != twocolor.Blank:
					return "" // first colouring (or direct failure)
				case (old == twocolor.Red || old == twocolor.Blue) && next == twocolor.Failed:
					return ""
				}
				return fmt.Sprintf("illegal colour transition %v -> %v", old, next)
			},
			AtFixpoint: func(states []twocolor.State) string {
				for v := range states {
					if !g.Alive(v) {
						continue
					}
					var want twocolor.State
					if bipartite {
						want = twocolor.Red
						if dist[v]%2 == 1 {
							want = twocolor.Blue
						}
					} else {
						want = twocolor.Failed
					}
					if states[v] != want {
						return fmt.Sprintf("node %d settled at %v, oracle says %v", v, states[v], want)
					}
				}
				return ""
			},
			Confluent: true,
		}
	}
	return makePair(name, spec, seed, model, func(g *graph.Graph) (*fssga.Network[twocolor.State], error) {
		return twocolor.NewNetwork(g, 0, seed), nil
	})
}

// censusPair explores the iterated-OR census on a 4-cycle with 2 sketches
// of 2 bits. The OR update is a semilattice join, so every schedule
// converges to the same fixpoint: each node holds the OR of its
// component's initial sketches.
func censusPair() Pair {
	spec := trace.GraphSpec{Gen: "cycle", N: 4, Seed: 0}
	cfg := census.Config{Bits: 2, Sketches: 2, Seed: 7}
	model := func(g *graph.Graph) Model[census.State] {
		// The derivation census.NewNetwork uses, so the network replay
		// starts from the very same sketches.
		sketch := census.InitialSketches(cfg)
		init := make([]census.State, g.Cap())
		for v := range init {
			init[v] = sketch(v)
		}
		want := make([]census.State, g.Cap())
		for v := 0; v < g.Cap(); v++ {
			if !g.Alive(v) {
				continue
			}
			var or census.State
			for _, u := range g.ComponentOf(v) {
				for j := range or {
					or[j] |= init[u][j]
				}
			}
			want[v] = or
		}
		return Model[census.State]{
			G:    g,
			Auto: census.Auto(cfg),
			Init: init,
			Invariant: func(v int, old, next census.State) string {
				if !census.SubState(old, next) {
					return fmt.Sprintf("sketch lost bits: %v -> %v", old, next)
				}
				return ""
			},
			AtFixpoint: func(states []census.State) string {
				for v := range states {
					if g.Alive(v) && states[v] != want[v] {
						return fmt.Sprintf("node %d settled at %v, component OR is %v", v, states[v], want[v])
					}
				}
				return ""
			},
			Confluent: true,
		}
	}
	return makePair("census/cycle4", spec, cfg.Seed, model, func(g *graph.Graph) (*fssga.Network[census.State], error) {
		return census.NewNetwork(g, cfg)
	})
}

// shortestPathPair explores min-relaxation on a 5-path with the single
// target 0 and cap 5. The update is a monotone map iterated from the top
// element (all labels at cap), so chaotic iteration converges to its
// greatest fixpoint — the true capped distances — under every schedule.
func shortestPathPair() Pair {
	spec := trace.GraphSpec{Gen: "path", N: 5, Seed: 0}
	const cap, seed = 5, 3
	model := func(g *graph.Graph) Model[shortestpath.State] {
		init := make([]shortestpath.State, g.Cap())
		for v := range init {
			init[v] = shortestpath.State{Label: cap}
		}
		init[0] = shortestpath.State{InT: true, Label: 0}
		dist := g.BFSDistances(0)
		return Model[shortestpath.State]{
			G:    g,
			Auto: shortestpath.Auto(cap),
			Init: init,
			Invariant: func(v int, old, next shortestpath.State) string {
				if msg := shortestpath.StepInvariant(old, next, cap); msg != "" {
					return msg
				}
				// Descent from the top element: labels only tighten, and
				// never below the true distance.
				if next.Label > old.Label {
					return fmt.Sprintf("label rose: %d -> %d", old.Label, next.Label)
				}
				if dist[v] != graph.Unreachable && next.Label < dist[v] {
					return fmt.Sprintf("label %d fell below true distance %d", next.Label, dist[v])
				}
				return ""
			},
			AtFixpoint: func(states []shortestpath.State) string {
				for v := range states {
					if !g.Alive(v) {
						continue
					}
					want := dist[v]
					if want == graph.Unreachable || want > cap {
						want = cap
					}
					if states[v].Label != want {
						return fmt.Sprintf("node %d settled at label %d, distance oracle says %d", v, states[v].Label, want)
					}
				}
				return ""
			},
			Confluent: true,
		}
	}
	return makePair("shortestpath/path5", spec, seed, model, func(g *graph.Graph) (*fssga.Network[shortestpath.State], error) {
		return shortestpath.NewNetwork(g, []int{0}, cap, seed)
	})
}

// bfsModel builds the BFS model with the given originator/target and the
// per-pair fixpoint oracle.
func bfsModel(g *graph.Graph, originator, target int, confluent bool, atFix func(states []bfs.State) string) Model[bfs.State] {
	init := make([]bfs.State, g.Cap())
	for v := range init {
		init[v] = bfs.State{Originator: v == originator, Target: v == target, Label: bfs.NoLabel}
	}
	dist := g.BFSDistances(originator)
	return Model[bfs.State]{
		G:    g,
		Auto: bfs.Auto(),
		Init: init,
		Invariant: func(v int, old, next bfs.State) string {
			if msg := bfs.Regressed(old, next); msg != "" {
				return msg
			}
			// On trees the label wave is forced: a node can only ever be
			// labelled with its BFS distance mod 3.
			if next.Label != bfs.NoLabel && int(next.Label) != dist[v]%3 {
				return fmt.Sprintf("node %d labelled %d, distance %d demands %d", v, next.Label, dist[v], dist[v]%3)
			}
			return ""
		},
		AtFixpoint: atFix,
		Confluent:  confluent,
	}
}

// bfsPathPair explores BFS on a 5-path, originator 0, target 4. On a path
// the label wave and the found back-propagation are both forced, so the
// execution is confluent: the unique fixpoint labels node i with i mod 3
// and reports every node Found.
func bfsPathPair() Pair {
	spec := trace.GraphSpec{Gen: "path", N: 5, Seed: 0}
	const originator, target, seed = 0, 4, 4
	model := func(g *graph.Graph) Model[bfs.State] {
		dist := g.BFSDistances(originator)
		return bfsModel(g, originator, target, true, func(states []bfs.State) string {
			for v := range states {
				if !g.Alive(v) {
					continue
				}
				if int(states[v].Label) != dist[v]%3 {
					return fmt.Sprintf("node %d label %d, want %d", v, states[v].Label, dist[v]%3)
				}
				if states[v].Status != bfs.Found {
					return fmt.Sprintf("node %d status %v, want found", v, states[v].Status)
				}
			}
			return ""
		})
	}
	return makePair("bfs/path5", spec, seed, model, func(g *graph.Graph) (*fssga.Network[bfs.State], error) {
		return bfs.NewNetwork(g, originator, []int{target}, seed)
	})
}

// bfsStarPair explores BFS on a 5-star (hub 0 = originator, leaf 3 =
// target). This pair is deliberately NOT confluent: a non-target leaf
// races the hub — if it activates after the hub is labelled but before
// the hub reports Found, it Fails (no successors, frontier base case);
// if the hub's Found lands first, the leaf parks Waiting behind the
// pred-Found guard. The wave labels and the originator's verdict are
// schedule-independent, and that weaker oracle is what the explorer
// proves over every interleaving.
func bfsStarPair() Pair {
	spec := trace.GraphSpec{Gen: "star", N: 5, Seed: 0}
	const originator, target, seed = 0, 3, 5
	model := func(g *graph.Graph) Model[bfs.State] {
		dist := g.BFSDistances(originator)
		return bfsModel(g, originator, target, false, func(states []bfs.State) string {
			for v := range states {
				if !g.Alive(v) {
					continue
				}
				if int(states[v].Label) != dist[v]%3 {
					return fmt.Sprintf("node %d label %d, want %d", v, states[v].Label, dist[v]%3)
				}
			}
			if states[originator].Status != bfs.Found {
				return fmt.Sprintf("originator status %v, want found", states[originator].Status)
			}
			if states[target].Status != bfs.Found {
				return fmt.Sprintf("target status %v, want found", states[target].Status)
			}
			return ""
		})
	}
	return makePair("bfs/star5", spec, seed, model, func(g *graph.Graph) (*fssga.Network[bfs.State], error) {
		return bfs.NewNetwork(g, originator, []int{target}, seed)
	})
}

// electionPair explores leader election on a 3-path, derandomized: every
// coin an activation flips is a fixed pure function of the activating
// node's local context (own state + neighbour state multiset), hashed
// under the chaos digest scheme. The explored object is therefore one
// deterministic instance from the algorithm's randomized family — enough
// to check the safety invariant (a leader never abandons Remain) on every
// schedule of that instance, under a state budget.
func electionPair() Pair {
	spec := trace.GraphSpec{Gen: "path", N: 3, Seed: 0}
	const seed = 6
	model := func(g *graph.Graph) Model[election.State] {
		return Model[election.State]{
			G:    g,
			Auto: election.Auto(),
			Init: make([]election.State, g.Cap()),
			Rand: func(v int, states []election.State) *rand.Rand {
				d := chaos.NewDigest()
				d.Int(v)
				d.String(fmt.Sprintf("%v", states[v]))
				for _, u := range g.SortedNeighbors(v, nil) {
					d.String(fmt.Sprintf("%v", states[u]))
				}
				return fssga.KeyedRand(d.Sum())
			},
			Invariant: func(v int, old, next election.State) string {
				if next.Leader && !next.Remain {
					return fmt.Sprintf("leader without remain: %+v", next)
				}
				return ""
			},
			MaxStates: 20000,
		}
	}
	p := makePair("election/path3", spec, seed, model, nil)
	p.Randomized = true
	p.Bounded = true
	return p
}
