// Command fssga-trace renders the round-by-round evolution of an FSSGA
// algorithm as a text table — the command-line equivalent of watching the
// paper's demo applet.
//
// Usage:
//
//	fssga-trace -algo=twocolor -graph=path -n=8
//	fssga-trace -algo=randomwalk -graph=cycle -n=6 -rounds=30
//	fssga-trace -algo=shortestpath -graph=path -n=10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/algo/randomwalk"
	"repro/internal/algo/shortestpath"
	"repro/internal/algo/twocolor"
	"repro/internal/fssga"
	"repro/internal/graph"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, writes the trace table to stdout and returns the exit
// status: 0 on success, 1 when the graph or the algorithm cannot be
// built or rendered, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fssga-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algo := fs.String("algo", "twocolor", "algorithm: twocolor, randomwalk, shortestpath")
	gname := fs.String("graph", "path", "topology: "+strings.Join(graph.GeneratorNames, ", "))
	n := fs.Int("n", 8, "node count")
	rounds := fs.Int("rounds", 0, "rounds to trace (0 = until quiescent, capped)")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := render(stdout, *algo, *gname, *n, *rounds, *seed); err != nil {
		fmt.Fprintln(stderr, "fssga-trace:", err)
		return 1
	}
	return 0
}

// render builds the named topology, runs the algorithm on it and writes
// the round-by-round table.
func render(w io.Writer, algo, gname string, n, rounds int, seed int64) error {
	g, err := graph.Build(gname, n, seed)
	if err != nil {
		return err
	}
	limit := rounds
	if limit == 0 {
		limit = 6 * g.NumNodes()
	}

	switch algo {
	case "twocolor":
		net := twocolor.NewNetwork(g, 0, seed)
		h := trace.RecordUntil(net, limit, func(nt *fssga.Network[twocolor.State]) bool {
			return nt.Quiescent()
		})
		return h.Render(w, func(s twocolor.State) string {
			return map[twocolor.State]string{
				twocolor.Blank: ".", twocolor.Red: "R", twocolor.Blue: "B", twocolor.Failed: "X",
			}[s]
		})
	case "randomwalk":
		tr, err := randomwalk.New(g, 0, seed)
		if err != nil {
			return err
		}
		h := trace.Record(tr.Net, limit)
		return h.Render(w, func(s randomwalk.State) string {
			return map[randomwalk.State]string{
				randomwalk.Blank: ".", randomwalk.Heads: "h", randomwalk.Tails: "t",
				randomwalk.Eliminated: "x", randomwalk.Flip: "F", randomwalk.Waiting: "W",
				randomwalk.NoTails: "N", randomwalk.OneTails: "1",
			}[s]
		})
	case "shortestpath":
		net, err := shortestpath.NewNetwork(g, []int{0}, g.NumNodes(), seed)
		if err != nil {
			return err
		}
		h := trace.RecordUntil(net, limit, func(nt *fssga.Network[shortestpath.State]) bool {
			return nt.Quiescent()
		})
		return h.Render(w, func(s shortestpath.State) string {
			if s.Label >= g.NumNodes() {
				return "-"
			}
			return strconv.Itoa(s.Label)
		})
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
}
