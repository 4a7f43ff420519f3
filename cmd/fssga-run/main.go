// Command fssga-run executes one FSSGA algorithm on one generated
// topology and prints the outcome — the command-line counterpart of the
// paper's demo applet.
//
// Usage:
//
//	fssga-run -algo=census   -graph=gnp   -n=128
//	fssga-run -algo=election -graph=cycle -n=32 -seed=7
//	fssga-run -algo=twocolor -graph=oddcycle -n=9
//
// Algorithms: census, shortestpath, twocolor, bfs, randomwalk, milgram,
// tourist, election, bridges.
// Graphs: path, cycle, oddcycle, grid, torus, complete, star, tree, gnp,
// hypercube, barbell, theta.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/algo/bfs"
	"repro/internal/algo/bridges"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/algo/randomwalk"
	"repro/internal/algo/shortestpath"
	"repro/internal/algo/traversal"
	"repro/internal/algo/twocolor"
	"repro/internal/graph"
)

func main() {
	algo := flag.String("algo", "census", "algorithm to run")
	gname := flag.String("graph", "gnp", "topology generator")
	n := flag.Int("n", 64, "approximate node count")
	seed := flag.Int64("seed", 1, "random seed")
	dot := flag.String("dot", "", "also write the topology as Graphviz DOT to this file")
	flag.Parse()

	g, err := buildGraph(*gname, *n, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("topology %s: %v (diameter %d)\n", *gname, g, g.Diameter())
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			fail(err)
		}
		if err := g.WriteDOT(f, *gname, nil); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *dot)
	}

	switch *algo {
	case "census":
		runCensus(g, *seed)
	case "shortestpath":
		runShortestPath(g, *seed)
	case "twocolor":
		runTwoColor(g, *seed)
	case "bfs":
		runBFS(g, *seed)
	case "randomwalk":
		runRandomWalk(g, *seed)
	case "milgram":
		runMilgram(g, *seed)
	case "tourist":
		runTourist(g, *seed)
	case "election":
		runElection(g, *seed)
	case "bridges":
		runBridges(g, *seed)
	default:
		fail(fmt.Errorf("unknown algorithm %q", *algo))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fssga-run:", err)
	os.Exit(1)
}

func buildGraph(name string, n int, seed int64) (*graph.Graph, error) {
	return graph.Build(name, n, seed)
}

func runCensus(g *graph.Graph, seed int64) {
	cfg := census.Config{Bits: 14, Sketches: 8, Seed: seed}
	res, err := census.Run(g, cfg, 20*g.NumNodes())
	if err != nil {
		fail(err)
	}
	v := 0
	for !g.Alive(v) {
		v++
	}
	fmt.Printf("census: converged=%v rounds=%d estimate=%.1f (true n=%d)\n",
		res.Converged, res.Rounds, res.Estimates[v], g.NumNodes())
}

func runShortestPath(g *graph.Graph, seed int64) {
	res, err := shortestpath.Run(g, []int{0}, 20*g.NumNodes(), seed)
	if err != nil {
		fail(err)
	}
	max := 0
	for v := 0; v < g.Cap(); v++ {
		if g.Alive(v) && res.Labels[v] > max && res.Labels[v] < g.NumNodes() {
			max = res.Labels[v]
		}
	}
	fmt.Printf("shortestpath: converged=%v rounds=%d max label=%d (ecc oracle=%d)\n",
		res.Converged, res.Rounds, max, g.Eccentricity(0))
}

func runTwoColor(g *graph.Graph, seed int64) {
	res := twocolor.Run(g, 0, 40*g.NumNodes(), seed)
	fmt.Printf("twocolor: converged=%v bipartite=%v rounds=%d (oracle=%v)\n",
		res.Converged, res.Bipartite, res.Rounds, g.IsBipartite())
}

func runBFS(g *graph.Graph, seed int64) {
	target := g.Cap() - 1
	for !g.Alive(target) {
		target--
	}
	res, err := bfs.Run(g, 0, []int{target}, 40*g.NumNodes(), seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("bfs: target=%d found=%v rounds=%d (dist oracle=%d)\n",
		target, res.Found, res.Rounds, g.BFSDistances(0)[target])
}

func runRandomWalk(g *graph.Graph, seed int64) {
	tr, err := randomwalk.New(g, 0, seed)
	if err != nil {
		fail(err)
	}
	moves, ok := tr.RunMoves(20, 1000000)
	fmt.Printf("randomwalk: moves=%d ok=%v trajectory=%v rounds=%d\n",
		moves, ok, tr.Trajectory, tr.Net.Rounds)
}

func runMilgram(g *graph.Graph, seed int64) {
	tr, err := traversal.NewMilgram(g, 0, seed)
	if err != nil {
		fail(err)
	}
	rounds, done := tr.Run(40000 * g.NumNodes())
	fmt.Printf("milgram: completed=%v rounds=%d hand moves=%d (2n-2=%d) visited=%d/%d\n",
		done, rounds, tr.HandMoves, 2*g.NumNodes()-2, tr.VisitedCount(), g.NumNodes())
}

func runTourist(g *graph.Graph, seed int64) {
	tr, err := traversal.NewTourist(g, 0, seed)
	if err != nil {
		fail(err)
	}
	done := tr.Run(200 * g.NumNodes())
	fmt.Printf("tourist: completed=%v moves=%d charged rounds=%d visited=%d/%d\n",
		done, tr.Moves, tr.Rounds, tr.VisitedCount(), g.NumNodes())
}

func runElection(g *graph.Graph, seed int64) {
	tr := election.New(g, seed)
	rounds, ok := tr.Run(100000*g.NumNodes(), 3*g.NumNodes()+10)
	fmt.Printf("election: elected=%v leaders=%v rounds=%d phases=%d remaining=%d\n",
		ok, tr.Leaders(), rounds, tr.Phases, tr.Remaining())
}

func runBridges(g *graph.Graph, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	res := bridges.Run(g, 0, 4, rng)
	fmt.Printf("bridges: steps=%d candidates=%v exact=%v (oracle=%v)\n",
		res.Steps, res.Candidates, res.TrueSet, g.Bridges())
}
