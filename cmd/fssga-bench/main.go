// Command fssga-bench regenerates the experiment tables E1–E13 of the
// Pritchard–Vempala (SPAA 2006) reproduction: one table per quantitative
// claim, as indexed in DESIGN.md and recorded in EXPERIMENTS.md.
//
// Usage:
//
//	fssga-bench                 # run every experiment (full sweeps)
//	fssga-bench -exp=E10        # run one experiment
//	fssga-bench -quick          # reduced sweeps (seconds, not minutes)
//	fssga-bench -seed=7         # change the master seed
//	fssga-bench -perf           # engine perf series (ns/op, allocs/op) → JSON
//	fssga-bench -perfgate       # regression gate vs the committed BENCH_engine.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("fssga-bench", flag.ContinueOnError)
	fs.SetOutput(w)
	expID := fs.String("exp", "", "experiment ID to run (E1..E13); empty = all")
	seed := fs.Int64("seed", 1, "master random seed")
	quick := fs.Bool("quick", false, "reduced sweeps and trial counts")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavoured markdown tables")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	perf := fs.Bool("perf", false, "run the engine perf suite instead of the experiment tables")
	out := fs.String("out", "BENCH_engine.json", "output path for the -perf JSON report")
	trajectory := fs.String("trajectory", "BENCH_trajectory.json", "trajectory file the -perf headline subset is appended to (empty disables)")
	perfgate := fs.Bool("perfgate", false, "re-measure the gated headline series and fail on regression vs -baseline")
	baseline := fs.String("baseline", "BENCH_engine.json", "committed perf report the -perfgate compares against")
	tolerance := fs.Float64("tolerance", 1.6, "one-sided slowdown factor the -perfgate tolerates")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *perfgate {
		if err := runPerfGate(*baseline, *seed, *tolerance, testing.Benchmark, w); err != nil {
			fmt.Fprintf(w, "fssga-bench: %v\n", err)
			return 1
		}
		return 0
	}

	if *perf {
		if err := runPerf(*seed, *out, *trajectory, testing.Benchmark); err != nil {
			fmt.Fprintf(w, "fssga-bench: perf suite failed: %v\n", err)
			return 1
		}
		return 0
	}

	if *list {
		for _, id := range exp.IDs() {
			fmt.Fprintln(w, id)
		}
		return 0
	}

	opts := exp.Options{Seed: *seed, Quick: *quick}
	print := func(t *exp.Table) {
		if *markdown {
			t.PrintMarkdown(w)
		} else {
			t.Print(w)
		}
	}
	if *expID == "" {
		for _, id := range exp.IDs() {
			print(exp.Registry[id](opts))
		}
		return 0
	}
	id := strings.ToUpper(strings.TrimSpace(*expID))
	runner, ok := exp.Registry[id]
	if !ok {
		fmt.Fprintf(w, "fssga-bench: unknown experiment %q (known: %s)\n",
			*expID, strings.Join(exp.IDs(), " "))
		return 2
	}
	print(runner(opts))
	return 0
}
